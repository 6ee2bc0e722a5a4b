//! Everything a workload feeds the engine: the XML text of its
//! documents and (for `serve_swap`) the request sequences, both made
//! from `--seed`; the view texts of its physical design; its query
//! texts. The engine never sees anything else.
//!
//! Building these is what `setup_s` times.

use summary::Summary;
use xmltree::{generate, NodeKind};

/// SplitMix64: the benchmark's own generator, so request sequences do
/// not depend on the engine's vendored `rand`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A closed-loop client's request sequence: Zipf(1.0) over plan ranks
/// (rank `r` with weight `1/(r+1)`), a fixed share of them ad-hoc.
///
/// The sequence is dealt in blocks of `block` requests. Every block
/// holds each rank exactly as often as Zipf's law says (largest
/// remainders make up the block) and the same number of ad-hoc
/// requests; the seed only shuffles the order. Independent draws would
/// let the count of a rare, dear plan vary by tens of percent between
/// seeds, which moves throughput without any change to the engine.
pub struct RequestSequence {
    rng: Rng,
    /// One block, unshuffled: `(plan rank, ad-hoc)`.
    block: Vec<(usize, bool)>,
    pending: Vec<(usize, bool)>,
}

impl RequestSequence {
    pub fn new(seed: u64, plans: usize, block: usize, adhoc_share: f64) -> RequestSequence {
        let total: f64 = (1..=plans).map(|r| 1.0 / r as f64).sum();
        let exact: Vec<f64> = (1..=plans)
            .map(|r| block as f64 / (r as f64 * total))
            .collect();
        let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..plans).collect();
        by_remainder.sort_by(|&a, &b| {
            exact[b]
                .fract()
                .total_cmp(&exact[a].fract())
                .then(a.cmp(&b))
        });
        let short = block - counts.iter().sum::<usize>();
        for &r in by_remainder.iter().take(short) {
            counts[r] += 1;
        }
        let mut ranks: Vec<usize> = Vec::with_capacity(block);
        for (r, &c) in counts.iter().enumerate() {
            ranks.extend(std::iter::repeat_n(r, c));
        }
        // every k-th request of the rank-ordered block is ad-hoc, so the
        // ad-hoc share falls on hot and cold plans alike
        let every = (1.0 / adhoc_share).round().max(1.0) as usize;
        let block = ranks
            .into_iter()
            .enumerate()
            .map(|(i, r)| (r, i % every == every - 1))
            .collect();
        RequestSequence {
            rng: Rng::new(seed),
            block,
            pending: Vec::new(),
        }
    }

    /// The next request: `(plan rank, ad-hoc)`.
    pub fn next_request(&mut self) -> (usize, bool) {
        if self.pending.is_empty() {
            self.pending = self.block.clone();
            // Fisher-Yates
            for i in (1..self.pending.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.pending.swap(i, j);
            }
        }
        self.pending.pop().expect("a block is never empty")
    }
}

/// Which kernels a prepared plan leans on (groups `algebra.*_ms`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Twig,
    Scan,
    IdJoin,
}

pub struct DocInput {
    pub name: &'static str,
    pub xml: String,
    pub nodes: usize,
    /// `(view name, XAM text)` in registration order.
    pub views: Vec<(String, String)>,
}

pub struct QuerySpec {
    pub name: &'static str,
    /// Index into [`Inputs::docs`].
    pub doc: usize,
    pub class: Class,
    pub text: &'static str,
}

pub struct Inputs {
    pub docs: Vec<DocInput>,
    pub queries: Vec<QuerySpec>,
}

/// Document scales `(full, --quick)`.
const BULK_XMARK: (usize, usize) = (500, 40);
const BULK_DBLP: (usize, usize) = (6000, 500);
const ADHOC_XMARK: (usize, usize) = (50, 10);
const JOINS_XMARK: (usize, usize) = (250, 20);
const SERVE_XMARK: (usize, usize) = (150, 15);

fn pick(scale: (usize, usize), quick: bool) -> usize {
    if quick {
        scale.1
    } else {
        scale.0
    }
}

/// Tag-partitioned storage in text form: `//l[id:s]` per element label
/// (the shape of `storage::catalog::tag_partition_model`).
fn tag_views(s: &Summary) -> Vec<(String, String)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for n in s.all_nodes() {
        if s.kind(n) != NodeKind::Element || s.parent(n).is_none() {
            continue;
        }
        let l = s.label(n);
        if seen.insert(l.to_string()) {
            out.push((format!("tagpart_{l}"), format!("//{l}[id:s]")));
        }
    }
    out
}

/// Path-partitioned storage in text form: one rooted child chain per
/// summary path whose relation name `keep` accepts, ending in
/// `[id:s,val]` (the shape of `storage::catalog::path_partition_model`).
fn path_views(s: &Summary, keep: impl Fn(&str) -> bool) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for n in s.all_nodes() {
        if s.kind(n) == NodeKind::Text {
            continue;
        }
        let name = storage::PathPartitionStore::relation_of(&s.path_of(n));
        if !keep(&name) {
            continue;
        }
        let mut chain = Vec::new();
        let mut cur = Some(n);
        while let Some(c) = cur {
            let sigil = if s.kind(c) == NodeKind::Attribute {
                "@"
            } else {
                ""
            };
            chain.push(format!("{sigil}{}", s.label(c)));
            cur = s.parent(c);
        }
        chain.reverse();
        let mut text = String::new();
        for (i, l) in chain.iter().enumerate() {
            text.push_str(if i == 0 { "/" } else { "{ /" });
            text.push_str(l);
        }
        text.push_str("[id:s,val]");
        text.push_str(&" }".repeat(chain.len() - 1));
        out.push((name, text));
    }
    out
}

fn named(views: &[(&str, &str)]) -> Vec<(String, String)> {
    views
        .iter()
        .map(|(n, x)| (n.to_string(), x.to_string()))
        .collect()
}

fn value_views(labels: &[&str]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|l| (format!("val_{l}"), format!("//{l}[id:s,val]")))
        .collect()
}

fn content_views(labels: &[&str]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|l| (format!("cont_{l}"), format!("//{l}[id:s,cont]")))
        .collect()
}

/// The physical design `prepared_joins` and `serve_swap` run over:
/// tag-partition ID views, value and content views of the leaf labels
/// the suites return, and the two-node views the rewriter needs as the
/// upper half of a fan, a star or a value join.
fn join_design(s: &Summary) -> Vec<(String, String)> {
    let mut v = tag_views(s);
    v.extend(value_views(&[
        "name",
        "keyword",
        "bold",
        "emph",
        "location",
        "quantity",
        "increase",
        "initial",
        "price",
        "date",
        "emailaddress",
        "reserve",
    ]));
    v.extend(content_views(&["description", "item", "mail", "person"]));
    v.extend(named(&[
        ("item_kw", "//item[id:s]{ //keyword[id:s,val] }"),
        ("listitem_kw", "//listitem[id:s]{ //keyword[id:s,val] }"),
        ("bidder_date", "//bidder[id:s]{ /date[id:s,val] }"),
        (
            "person_idname",
            "//person[id:s]{ /n? @id[val], /n? name[val] }",
        ),
        ("buyer_person", "//buyer[id:s]{ /n? @person[val] }"),
        ("seller_person", "//seller[id:s]{ /n? @person[val] }"),
    ]));
    v
}

fn xmark_doc(name: &'static str, scale: usize, seed: u64) -> (DocInput, Summary) {
    let doc = generate::xmark(scale, seed);
    let summary = Summary::of_document(&doc);
    let input = DocInput {
        name,
        xml: xmltree::parser::serialize(&doc),
        nodes: doc.len(),
        views: Vec::new(),
    };
    (input, summary)
}

const fn q(name: &'static str, doc: usize, class: Class, text: &'static str) -> QuerySpec {
    QuerySpec {
        name,
        doc,
        class,
        text,
    }
}

/// The fifteen prepared plans: nine twigs, four scans, two value joins.
fn join_suite() -> Vec<QuerySpec> {
    use Class::*;
    vec![
        q(
            "chain_d2",
            0,
            Twig,
            r#"for $d in doc("X")//description, $k in $d//keyword return <r>{$k/text()}</r>"#,
        ),
        q(
            "chain_d3",
            0,
            Twig,
            r#"for $d in doc("X")//description, $p in $d//parlist, $k in $p//keyword return <r>{$k/text()}</r>"#,
        ),
        q(
            "chain_d4",
            0,
            Twig,
            r#"for $d in doc("X")//description, $p in $d//parlist, $l in $p//listitem, $k in $l//keyword return <r>{$k/text()}</r>"#,
        ),
        q(
            "chain_d5",
            0,
            Twig,
            r#"for $d in doc("X")//description, $p in $d//parlist, $l in $p//listitem, $t in $l//text, $k in $t//keyword return <r>{$k/text()}</r>"#,
        ),
        q(
            "fan_bidder",
            0,
            Twig,
            r#"for $a in doc("X")//open_auction, $b in $a/bidder, $i in $b/increase, $d in $b/date return <r>{$i/text()},{$d/text()}</r>"#,
        ),
        q(
            "star_asia_kw_emph",
            0,
            Twig,
            r#"for $r in doc("X")//asia, $i in $r/item, $a in $i//keyword, $b in $i//emph return <r>{$a/text()},{$b/text()}</r>"#,
        ),
        q(
            "sel_mail_keyword",
            0,
            Twig,
            r#"for $m in doc("X")//mail, $k in $m//keyword return <r>{$k/text()}</r>"#,
        ),
        q(
            "dense_text_bold",
            0,
            Twig,
            r#"for $t in doc("X")//text, $b in $t//bold return <r>{$b/text()}</r>"#,
        ),
        q(
            "mul_listitem_kw_bold",
            0,
            Twig,
            r#"for $l in doc("X")//listitem, $a in $l//keyword, $b in $l//bold return <r>{$a/text()},{$b/text()}</r>"#,
        ),
        q(
            "scan_name",
            0,
            Scan,
            r#"for $n in doc("X")//name return <r>{$n/text()}</r>"#,
        ),
        q(
            "select_price",
            0,
            Scan,
            r#"for $p in doc("X")//price where $p/text() > 100 return <r>{$p/text()}</r>"#,
        ),
        q("scan_item_content", 0, Scan, r#"doc("X")//item"#),
        q(
            "scan_description_content",
            0,
            Scan,
            r#"doc("X")//description"#,
        ),
        q(
            "join_buyer_person",
            0,
            IdJoin,
            r#"for $p in doc("X")//person, $b in doc("X")//buyer where $b/@person = $p/@id return <r>{$p/name/text()}</r>"#,
        ),
        q(
            "join_seller_person",
            0,
            IdJoin,
            r#"for $p in doc("X")//person, $s in doc("X")//seller where $s/@person = $p/@id return <r>{$p/name/text()}</r>"#,
        ),
    ]
}

fn bulk_load(seed: u64, quick: bool) -> Inputs {
    let (mut xmark, xs) = xmark_doc("xmark", pick(BULK_XMARK, quick), seed);
    xmark.views = tag_views(&xs);
    xmark.views.extend(value_views(&[
        "keyword", "bold", "name", "increase", "date", "emph",
    ]));

    let d = generate::dblp(pick(BULK_DBLP, quick), seed);
    let ds = Summary::of_document(&d);
    let dblp = DocInput {
        name: "dblp",
        xml: xmltree::parser::serialize(&d),
        nodes: d.len(),
        views: path_views(&ds, |_| true),
    };
    use Class::Twig;
    let queries = vec![
        q(
            "x_chain_d3",
            0,
            Twig,
            r#"for $d in doc("X")//description, $p in $d//parlist, $k in $p//keyword return <r>{$k/text()}</r>"#,
        ),
        q(
            "x_text_bold",
            0,
            Twig,
            r#"for $t in doc("X")//text, $b in $t//bold return <r>{$b/text()}</r>"#,
        ),
        q(
            "x_mail_keyword",
            0,
            Twig,
            r#"for $m in doc("X")//mail, $k in $m//keyword return <r>{$k/text()}</r>"#,
        ),
        q(
            "d_article_title_year",
            1,
            Twig,
            r#"for $a in doc("D")/dblp/article, $t in $a/title, $y in $a/year return <r>{$t/text()},{$y/text()}</r>"#,
        ),
        q(
            "d_article_author",
            1,
            Twig,
            r#"for $a in doc("D")//article, $u in $a/author return <r>{$u/text()}</r>"#,
        ),
    ];
    Inputs {
        docs: vec![xmark, dblp],
        queries,
    }
}

/// Summary paths kept from the path-partition model on `adhoc_rewrite`:
/// the whole model is 397 views on XMark, each of which the engine
/// materializes in time linear in the document.
const ADHOC_PATH_SUFFIXES: [&str; 10] = [
    "-person-name",
    "-person-emailaddress",
    "-open_auction-initial",
    "-open_auction-reserve",
    "-closed_auction-price",
    "-item-name",
    "-item-location",
    "-bidder-increase",
    "-profile-a_income",
    "-person-a_id",
];

fn adhoc_rewrite(seed: u64, quick: bool) -> Inputs {
    let (mut xmark, s) = xmark_doc("xmark", pick(ADHOC_XMARK, quick), seed);
    xmark.views = tag_views(&s);
    xmark.views.extend(path_views(&s, |name| {
        ADHOC_PATH_SUFFIXES.iter().any(|x| name.ends_with(x))
    }));
    // six composite views shaped like XMark Q3, Q10, Q13, Q14, Q17, Q19
    xmark.views.extend(named(&[
        ("v_q3", "//open_auction[id:s]{ /bidder[id:s]{ /increase[id:s,val] }, /initial[id:s,val] }"),
        ("v_q10", "//person[id:s]{ /n? emailaddress[val], /n? profile{ /gender[val] }, /n? profile{ /age[val] } }"),
        ("v_q13", "//australia{ /item[id:s]{ /n? name[val], /n? description[cont] } }"),
        ("v_q14", "//item[id:s]{ /name[id:s,val], /s description{ //keyword } }"),
        ("v_q17", "//person[id:s]{ /n? name[val], /n? homepage[val] }"),
        ("v_q19", "//item[id:s]{ /n? name[val], /n? location[val] }"),
        // the two sides of the multi-variable value join
        ("person_idname", "//person[id:s]{ /n? @id[val], /n? name[val] }"),
        ("buyer_person", "//buyer[id:s]{ /n? @person[val] }"),
    ]));
    use Class::*;
    let queries = vec![
        q(
            "q2_bidder_increase",
            0,
            Twig,
            r#"for $b in doc("X")//open_auction/bidder, $i in $b/increase return <r>{$i/text()}</r>"#,
        ),
        q(
            "q3_increase_initial",
            0,
            Twig,
            r#"for $a in doc("X")//open_auctions/open_auction, $b in $a/bidder, $i in $b/increase, $n in $a/initial return <r>{$i/text()},{$n/text()}</r>"#,
        ),
        q(
            "q5_price_over_40",
            0,
            Scan,
            r#"for $p in doc("X")//closed_auction/price where $p/text() > 40 return <r>{$p/text()}</r>"#,
        ),
        q(
            "q6_region_items",
            0,
            Twig,
            r#"for $i in doc("X")//regions//item, $n in $i/name return <r>{$n/text()}</r>"#,
        ),
        q(
            "q8_person_names",
            0,
            Twig,
            r#"for $p in doc("X")//people/person, $n in $p/name return <r>{$n/text()}</r>"#,
        ),
        q(
            "q9_europe_items",
            0,
            Twig,
            r#"for $i in doc("X")//europe/item, $n in $i/name return <r>{$n/text()}</r>"#,
        ),
        q(
            "q10_profiles_optional",
            0,
            Scan,
            r#"for $p in doc("X")//person return <r>{$p/emailaddress/text()},{$p/profile/gender/text()},{$p/profile/age/text()}</r>"#,
        ),
        q(
            "q11_incomes",
            0,
            Twig,
            r#"for $p in doc("X")//person, $f in $p/profile, $i in $f/@income return <r>{$i}</r>"#,
        ),
        q(
            "q12_incomes_over_50k",
            0,
            Twig,
            r#"for $p in doc("X")//person, $f in $p/profile, $i in $f/@income where $i > 50000 return <r>{$i}</r>"#,
        ),
        q(
            "q13_australia_content",
            0,
            Scan,
            r#"for $i in doc("X")//australia/item return <r>{$i/name/text()},{$i/description}</r>"#,
        ),
        q(
            "q14_items_with_keyword",
            0,
            Scan,
            r#"for $i in doc("X")//item[description//keyword], $n in $i/name return <r>{$n/text()}</r>"#,
        ),
        q(
            "q15_long_chain",
            0,
            Twig,
            r#"for $l in doc("X")//closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem, $t in $l/text return <r>{$t/text()}</r>"#,
        ),
        q(
            "q17_homepage_optional",
            0,
            Scan,
            r#"for $p in doc("X")//person return <r>{$p/name/text()},{$p/homepage/text()}</r>"#,
        ),
        q(
            "q18_reserves",
            0,
            Scan,
            r#"for $r in doc("X")//open_auction/reserve return <r>{$r/text()}</r>"#,
        ),
        q(
            "q19_name_location",
            0,
            Scan,
            r#"for $i in doc("X")//item return <r>{$i/name/text()},{$i/location/text()}</r>"#,
        ),
        q(
            "q7_person_buyer_join",
            0,
            IdJoin,
            r#"for $p in doc("X")//person, $b in doc("X")//buyer where $b/@person = $p/@id return <r>{$p/name/text()}</r>"#,
        ),
    ];
    Inputs {
        docs: vec![xmark],
        queries,
    }
}

fn prepared_joins(seed: u64, quick: bool) -> Inputs {
    let (mut xmark, s) = xmark_doc("xmark", pick(JOINS_XMARK, quick), seed);
    xmark.views = join_design(&s);
    Inputs {
        docs: vec![xmark],
        queries: join_suite(),
    }
}

fn serve_swap(seed: u64, quick: bool) -> Inputs {
    let (mut xmark, s) = xmark_doc("xmark", pick(SERVE_XMARK, quick), seed);
    xmark.views = join_design(&s);
    // Zipf rank order: the fifteen join-suite plans interleaved with nine
    // more scans and short chains, so hot ranks mix cheap and dear plans
    use Class::*;
    let mut queries = join_suite();
    let extra = vec![
        q(
            "scan_keyword",
            0,
            Scan,
            r#"for $k in doc("X")//keyword return <r>{$k/text()}</r>"#,
        ),
        q(
            "scan_emph",
            0,
            Scan,
            r#"for $k in doc("X")//emph return <r>{$k/text()}</r>"#,
        ),
        q(
            "scan_location",
            0,
            Scan,
            r#"for $l in doc("X")//location return <r>{$l/text()}</r>"#,
        ),
        q(
            "scan_date",
            0,
            Scan,
            r#"for $d in doc("X")//date return <r>{$d/text()}</r>"#,
        ),
        q(
            "select_increase",
            0,
            Scan,
            r#"for $i in doc("X")//increase where $i/text() > 10 return <r>{$i/text()}</r>"#,
        ),
        q(
            "chain_mail_emph",
            0,
            Twig,
            r#"for $m in doc("X")//mail, $e in $m//emph return <r>{$e/text()}</r>"#,
        ),
        q(
            "chain_text_emph",
            0,
            Twig,
            r#"for $t in doc("X")//text, $e in $t//emph return <r>{$e/text()}</r>"#,
        ),
        q(
            "chain_listitem_bold",
            0,
            Twig,
            r#"for $l in doc("X")//listitem, $b in $l//bold return <r>{$b/text()}</r>"#,
        ),
        q("scan_mail_content", 0, Scan, r#"doc("X")//mail"#),
    ];
    for (i, e) in extra.into_iter().enumerate() {
        queries.insert((2 * i + 1).min(queries.len()), e);
    }
    Inputs {
        docs: vec![xmark],
        queries,
    }
}

/// Build a workload's inputs from the seed (`None` for an unknown name).
pub fn build(workload: &str, seed: u64, quick: bool) -> Option<Inputs> {
    Some(match workload {
        "bulk_load" => bulk_load(seed, quick),
        "adhoc_rewrite" => adhoc_rewrite(seed, quick),
        "prepared_joins" => prepared_joins(seed, quick),
        "serve_swap" => serve_swap(seed, quick),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_blocks_follow_zipf_exactly_and_only_their_order_is_seeded() {
        let draw = |seed| {
            let mut seq = RequestSequence::new(seed, 24, 200, 0.10);
            (0..400).map(|_| seq.next_request()).collect::<Vec<_>>()
        };
        let a = draw(7);
        assert_eq!(a, draw(7));
        assert_ne!(a, draw(8));
        for block in a.chunks(200) {
            let count = |r| block.iter().filter(|x| x.0 == r).count();
            // 200 / (r+1) / H(24), H(24) = 3.776
            assert_eq!(count(0), 53);
            assert_eq!(count(1), 26);
            assert!(count(23) >= 2);
            assert_eq!(block.iter().filter(|x| x.1).count(), 20);
        }
        let mut sorted = draw(8)[..200].to_vec();
        let mut mine = a[..200].to_vec();
        sorted.sort_unstable();
        mine.sort_unstable();
        assert_eq!(sorted, mine);
    }

    #[test]
    fn same_seed_same_inputs() {
        let a = build("adhoc_rewrite", 3, true).unwrap();
        let b = build("adhoc_rewrite", 3, true).unwrap();
        assert_eq!(a.docs[0].xml, b.docs[0].xml);
        assert_eq!(a.docs[0].views, b.docs[0].views);
        assert_eq!(a.queries.len(), 16);
        assert_ne!(
            a.docs[0].xml,
            build("adhoc_rewrite", 4, true).unwrap().docs[0].xml
        );
        assert!(build("nope", 1, true).is_none());
    }
}
