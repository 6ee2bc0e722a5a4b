//! Quickstart: parse XML, build a path summary, describe storage with
//! XAMs, and answer an XQuery — both directly and rewritten over
//! materialized views.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use uload::prelude::*;

fn main() -> Result<()> {
    // 1. an XML document (any text works; here the paper's bib example)
    let doc = parse_document(
        r#"<library>
             <book year="1999">
               <title>Data on the Web</title>
               <author>Abiteboul</author><author>Suciu</author>
             </book>
             <book><title>The Syntactic Web</title><author>Tom Lerners-Bee</author></book>
             <phdthesis year="2004">
               <title>The Web: next generation</title><author>Jim Smith</author>
             </phdthesis>
           </library>"#,
    )?;
    println!("document: {} nodes", doc.len());

    // 2. its path summary (a strong DataGuide with 1/+ edge constraints)
    let summary = Summary::of_document(&doc);
    println!("\npath summary ({} nodes):\n{summary}", summary.len());

    // 3. a XAM describes what a storage structure holds: here, books with
    //    their structural IDs and nested title values
    let xam = parse_xam("//book[id:s]{ /title[val], /? y:@year[val] }")?;
    println!("a XAM (storage description):\n{xam}");
    let rel = Uload::evaluate_xam(&xam, &doc)?;
    println!("its content over the document ({} tuples):", rel.len());
    for t in &rel.tuples {
        println!("  {t}");
    }

    // 4. run an XQuery directly (tag-derived collections as the store)
    let query = r#"for $b in doc("bib.xml")//book
                   where $b/@year = "1999"
                   return <hit>{$b/title}</hit>"#;
    let direct = Uload::execute_direct(query, &doc)?;
    println!(
        "\ndirect evaluation of\n  {query}\n→ {} item(s), plan fingerprint {:016x}",
        direct.items.len(),
        direct.plan_fingerprint
    );
    let out = direct.into_strings();
    println!("→ {out:?}");

    // 5. the same query answered purely from materialized views: register
    //    views, and the rewriter plans over them (physical data
    //    independence: changing the storage = changing the XAM set)
    let mut engine = Uload::builder()
        .document(&doc)
        .config(EngineConfig::default())
        .build()?;
    engine.add_view_text(
        "v_books",
        r#"//book[id:s]{ /n? t:title[cont], /s @year[val="1999"] }"#,
        &doc,
    )?;
    let (answers, rewritings) = engine.answer(
        r#"for $b in doc("bib.xml")//book where $b/@year = "1999" return <hit>{$b/title}</hit>"#,
        &doc,
    )?;
    println!("\nview-based evaluation → {answers:?}");
    for rw in &rewritings {
        println!("  used views {:?}, plan: {}", rw.views_used, rw.plan);
    }
    assert_eq!(out, answers);
    println!("\ndirect and view-based answers agree ✓");

    // 5b. the same answers as a *stream*: `Uload::query` returns a
    //     cursor that pulls batches through the pipelined executor on
    //     demand — iterate a prefix and drop it, and the rows never
    //     looked at are never computed (LIMIT-style early termination)
    let mut stream = engine.query(
        r#"for $b in doc("bib.xml")//book where $b/@year = "1999" return <hit>{$b/title}</hit>"#,
        &doc,
    )?;
    let first = stream.next().transpose()?;
    println!(
        "streamed first item: {first:?} (batch size {}, peak resident tuples {})",
        stream.batch_size(),
        stream.peak_resident_tuples()
    );
    stream.close();

    // 6. a larger shared containment cache changes only planning time,
    //    never the answers
    let mut cached = Uload::builder()
        .document(&doc)
        .cache_capacity(1024)
        .build()?;
    cached.add_view_text(
        "v_books",
        r#"//book[id:s]{ /n? t:title[cont], /s @year[val="1999"] }"#,
        &doc,
    )?;
    let (cached_answers, _) = cached.answer(
        r#"for $b in doc("bib.xml")//book where $b/@year = "1999" return <hit>{$b/title}</hit>"#,
        &doc,
    )?;
    assert_eq!(answers, cached_answers);
    if let Some(stats) = cached.cache_stats() {
        println!("cached engine agrees; cache: {stats:?}");
    }
    Ok(())
}
