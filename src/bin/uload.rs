//! `uload` — command-line driver for the XAM framework.
//!
//! ```text
//! uload summary <file.xml>                 # print the path summary
//! uload xam <file.xml> '<xam>'             # evaluate a XAM over the file
//! uload query <file.xml> '<xquery>'        # run an XQuery directly
//! uload rewrite <file.xml> '<xquery>' '<name>=<xam>' [more views…] [--limit N]
//!                                          # answer the query from views only
//!                                          # (--limit streams and stops early)
//! uload contain <file.xml> '<xam p>' '<xam q>'
//!                                          # decide p ⊆_S q under the summary
//! uload serve <file.xml> [--addr HOST:PORT | --unix PATH] [--slow-ms N] ['<name>=<xam>'…]
//!                                          # serve the document to clients
//!                                          # (--slow-ms: slow-query threshold)
//! uload client <ADDR> query '<xquery>'     # one query against a server
//! uload client <ADDR> explain '<xquery>'   # plan + cost estimates JSON, no exec
//! uload client <ADDR> stats                # the session's profile JSON
//! uload client <ADDR> metrics              # server-wide metrics JSON
//! uload client <ADDR> slowlog              # drain the slow-query log
//! uload client <ADDR> shutdown             # stop a running server
//! ```
//!
//! `<ADDR>` is `HOST:PORT` for TCP or `unix:/path.sock` for a Unix
//! socket.
//!
//! Example:
//!
//! ```text
//! uload rewrite bib.xml \
//!   'for $b in doc("bib.xml")//book return <r>{$b/title}</r>' \
//!   'v1=//book[id:s]{ /n? t:title[cont] }'
//! ```

use std::process::ExitCode;

use uload::prelude::*;

fn main() -> ExitCode {
    init_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> Error {
    Error::Config(
        "usage:\n  uload summary <file.xml>\n  uload xam <file.xml> '<xam>'\n  \
         uload query <file.xml> '<xquery>'\n  \
         uload rewrite <file.xml> '<xquery>' '<name>=<xam>'… [--limit N]\n  \
         uload contain <file.xml> '<xam p>' '<xam q>'\n  \
         uload serve <file.xml> [--addr HOST:PORT | --unix PATH] [--slow-ms N] ['<name>=<xam>'…]\n  \
         uload client <ADDR> (query '<xquery>' | explain '<xquery>' | stats | metrics | slowlog | shutdown)"
            .to_string(),
    )
}

/// `HOST:PORT` or `unix:/path.sock` → a [`BindAddr`].
fn parse_addr(s: &str) -> BindAddr {
    match s.strip_prefix("unix:") {
        Some(path) => BindAddr::Unix(path.into()),
        None => BindAddr::Tcp(s.to_string()),
    }
}

fn load(path: &str) -> Result<Document> {
    let text = std::fs::read_to_string(path).map_err(|e| Error::Io(format!("{path}: {e}")))?;
    parse_document(&text)
}

fn run(args: &[String]) -> Result<()> {
    let cmd = args.first().ok_or_else(usage)?;
    match cmd.as_str() {
        "summary" => {
            let doc = load(args.get(1).ok_or_else(usage)?)?;
            let s = Summary::of_document(&doc);
            println!(
                "{} nodes, {} summary paths, {} strong edges, {} one-to-one",
                doc.len(),
                s.len(),
                s.strong_edge_count(),
                s.one_to_one_edge_count()
            );
            print!("{s}");
            Ok(())
        }
        "xam" => {
            let doc = load(args.get(1).ok_or_else(usage)?)?;
            let xam = parse_xam(args.get(2).ok_or_else(usage)?)?;
            println!("{xam}");
            let rel = Uload::evaluate_xam(&xam, &doc)?;
            println!("schema: {}", rel.schema);
            for t in &rel.tuples {
                println!("{t}");
            }
            println!("({} tuples)", rel.len());
            Ok(())
        }
        "query" => {
            let doc = load(args.get(1).ok_or_else(usage)?)?;
            let out = Uload::execute_direct(args.get(2).ok_or_else(usage)?, &doc)?;
            for item in &out.items {
                println!("{}", item.xml);
            }
            println!(
                "({} results, plan fingerprint {:016x})",
                out.items.len(),
                out.plan_fingerprint
            );
            Ok(())
        }
        "rewrite" => {
            let doc = load(args.get(1).ok_or_else(usage)?)?;
            let query = args.get(2).ok_or_else(usage)?;
            let mut views: Vec<&str> = Vec::new();
            let mut limit: Option<usize> = None;
            let mut i = 3;
            while i < args.len() {
                if args[i] == "--limit" {
                    limit = Some(
                        args.get(i + 1)
                            .ok_or_else(usage)?
                            .parse::<usize>()
                            .map_err(|e| Error::Config(format!("--limit: {e}")))?,
                    );
                    i += 2;
                } else {
                    views.push(&args[i]);
                    i += 1;
                }
            }
            if views.is_empty() {
                return Err(Error::Config(
                    "rewrite needs at least one view (<name>=<xam>)".into(),
                ));
            }
            let mut engine = Uload::builder()
                .document(&doc)
                .config(EngineConfig::default())
                .build()?;
            for def in views {
                let (name, text) = def.split_once('=').ok_or_else(|| {
                    Error::Config(format!("bad view definition `{def}` (want name=xam)"))
                })?;
                engine.add_view_text(name, text, &doc)?;
                println!(
                    "materialized view `{name}` ({} tuples)",
                    engine.store().relation(name).map(|r| r.len()).unwrap_or(0)
                );
            }
            match limit {
                // stream through the pipelined executor and stop early:
                // closing the cursor tree skips the rows never looked at
                Some(n) => {
                    let mut results = engine.query(query, &doc)?;
                    for rw in results.rewritings() {
                        println!("rewriting over {:?}: {}", rw.views_used, rw.plan);
                    }
                    let mut count = 0usize;
                    for item in results.by_ref().take(n) {
                        println!("{}", item?);
                        count += 1;
                    }
                    results.close();
                    println!("({count} results, limit {n}, streamed from views only)");
                }
                None => {
                    let (out, used) = engine.answer(query, &doc)?;
                    for rw in &used {
                        println!("rewriting over {:?}: {}", rw.views_used, rw.plan);
                    }
                    for line in &out {
                        println!("{line}");
                    }
                    println!("({} results, from views only)", out.len());
                }
            }
            Ok(())
        }
        "contain" => {
            let doc = load(args.get(1).ok_or_else(usage)?)?;
            let s = Summary::of_document(&doc);
            let p = parse_xam(args.get(2).ok_or_else(usage)?)?;
            let q = parse_xam(args.get(3).ok_or_else(usage)?)?;
            if let Some(other) = args.get(4) {
                return Err(Error::Config(format!("unknown flag `{other}`")));
            }
            let opts = ContainOptions::default();
            let fwd = contain(&p, &q, &s, &opts);
            let bwd = contain(&q, &p, &s, &opts);
            println!(
                "p ⊆_S q: {}  (model: {} trees)",
                fwd.contained, fwd.model_size
            );
            println!(
                "q ⊆_S p: {}  (model: {} trees)",
                bwd.contained, bwd.model_size
            );
            println!("equivalent: {}", fwd.contained && bwd.contained);
            Ok(())
        }
        "serve" => {
            let doc = load(args.get(1).ok_or_else(usage)?)?;
            let mut addr = BindAddr::Tcp("127.0.0.1:7711".into());
            let mut views: Vec<&str> = Vec::new();
            let mut config = ServerConfig::default();
            let mut i = 2;
            while i < args.len() {
                match args[i].as_str() {
                    "--addr" => {
                        addr = BindAddr::Tcp(args.get(i + 1).ok_or_else(usage)?.clone());
                        i += 2;
                    }
                    "--unix" => {
                        addr = BindAddr::Unix(args.get(i + 1).ok_or_else(usage)?.into());
                        i += 2;
                    }
                    "--slow-ms" => {
                        let ms = args
                            .get(i + 1)
                            .ok_or_else(usage)?
                            .parse::<u64>()
                            .map_err(|e| Error::Config(format!("--slow-ms: {e}")))?;
                        let capacity = config.slowlog_capacity;
                        config =
                            config.with_slowlog(std::time::Duration::from_millis(ms), capacity);
                        i += 2;
                    }
                    v => {
                        views.push(v);
                        i += 1;
                    }
                }
            }
            let mut engine = Uload::builder()
                .document(&doc)
                .config(EngineConfig::default())
                .build()?;
            for def in views {
                let (name, text) = def.split_once('=').ok_or_else(|| {
                    Error::Config(format!("bad view definition `{def}` (want name=xam)"))
                })?;
                engine.add_view_text(name, text, &doc)?;
            }
            let server = Server::start(config.with_addr(addr), engine, DocumentHandle::new(doc))?;
            println!(
                "serving on {} (stop with `uload client <ADDR> shutdown`)",
                server.addr()
            );
            server.wait();
            println!("server stopped");
            Ok(())
        }
        "client" => {
            let addr = parse_addr(args.get(1).ok_or_else(usage)?);
            let mut client = Client::connect(&addr)?;
            match args.get(2).map(String::as_str) {
                Some("query") => {
                    let reply = client.query(args.get(3).ok_or_else(usage)?)?;
                    for row in &reply.rows {
                        println!("{row}");
                    }
                    println!(
                        "({} results, cached={}, fp={:016x}, v{}, {:.3} ms server-side)",
                        reply.rows.len(),
                        reply.cached,
                        reply.fingerprint,
                        reply.version,
                        reply.ns as f64 / 1e6
                    );
                    client.quit()
                }
                Some("explain") => {
                    println!("{}", client.explain_json(args.get(3).ok_or_else(usage)?)?);
                    client.quit()
                }
                Some("stats") => {
                    println!("{}", client.stats_json()?);
                    client.quit()
                }
                Some("metrics") => {
                    println!("{}", client.metrics_json()?);
                    client.quit()
                }
                Some("slowlog") => {
                    println!("{}", client.slowlog_json()?);
                    client.quit()
                }
                Some("shutdown") => client.shutdown_server(),
                _ => Err(usage()),
            }
        }
        _ => Err(usage()),
    }
}
