//! Parser for the XQuery subset `Q` (§3.2).
//!
//! Supported grammar (matching the paper's items 1–5):
//!
//! ```text
//! query   := flwr | concat
//! concat  := item ("," item)*
//! item    := path | constructor | flwr | "(" query ")"
//! flwr    := "for" $v "in" path ("," $v "in" path)*
//!            ("where" cond ("and" cond)*)?
//!            "return" item
//! cond    := path cmp const | path cmp path | path ("ftcontains" str)?
//! path    := ("doc(" str ")" | "document(" str ")" | $v) step*
//!            | "/" … (leading absolute form, doc implied)
//! step    := ("/" | "//") (name | "*" | "@name" | "text()") pred*
//! pred    := "[" relpath (cmp const)? "]"
//! constructor := "<" tag ">" "{" query "}" … "</" tag ">"
//! ```

use std::fmt;

use algebra::CmpOp;

/// Error from the query parser.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XQuery parse error at {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for QueryParseError {}

/// Node test of a path step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NameTest {
    /// `*` — any element.
    Star,
    /// An element label.
    Label(String),
    /// `@name` — an attribute.
    Attr(String),
    /// `text()` — the node's value.
    Text,
}

/// One navigation step.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// `true` for `//`, `false` for `/`.
    pub descendant: bool,
    pub test: NameTest,
    /// Bracketed predicates `[...]`.
    pub preds: Vec<Pred>,
}

/// A bracketed predicate: an existential relative path, optionally
/// compared to a constant (`[d/text() = 5]`, `[author]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Pred {
    pub path: Vec<Step>,
    pub cmp: Option<(CmpOp, Const)>,
}

/// A constant in a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    Str(String),
    Int(i64),
}

/// Where a path starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathRoot {
    /// `doc("name.xml")` or an absolute leading `/`.
    Doc(String),
    /// `$var`.
    Var(String),
}

/// A path expression: a root plus steps.
#[derive(Debug, Clone, PartialEq)]
pub struct PathExpr {
    pub root: PathRoot,
    pub steps: Vec<Step>,
}

impl PathExpr {
    /// Does the path end in `text()`?
    pub fn ends_in_text(&self) -> bool {
        matches!(
            self.steps.last(),
            Some(Step {
                test: NameTest::Text,
                ..
            })
        )
    }
}

/// A `where` condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Cond {
    /// `path θ const`.
    CmpConst(PathExpr, CmpOp, Const),
    /// `path θ path` (a value join).
    CmpPath(PathExpr, CmpOp, PathExpr),
    /// `path ftcontains "word"` — full-text containment (§2.1.2's q''').
    FtContains(PathExpr, String),
}

/// A query in `Q`.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    Path(PathExpr),
    /// `e1, e2` — concatenation.
    Concat(Vec<Query>),
    /// `<t>{ e }</t>` — element constructor.
    Element {
        tag: String,
        content: Vec<Query>,
    },
    /// for-where-return.
    Flwr {
        bindings: Vec<(String, PathExpr)>,
        conditions: Vec<Cond>,
        ret: Box<Query>,
    },
}

/// How many levels a query may nest around its innermost item. Each
/// item, FLWR, element constructor and `,`-sequence counts a level, so
/// `((…))` takes one per parenthesis and `<a>{…}</a>` two. Parsing (and
/// every later walk of the query) recurses once per level, and the cap
/// keeps a hostile text from overflowing a 2 MB thread stack: past it,
/// [`parse_query`] returns a [`QueryParseError`]. Unoptimized builds
/// spend several times the stack per level, so their cap is lower.
pub const MAX_NESTING: usize = if cfg!(debug_assertions) { 400 } else { 3_000 };

struct P<'a> {
    s: &'a [u8],
    pos: usize,
    depth: usize,
}

/// Parse a `Q` query.
///
/// ```
/// let q = xquery::parse_query(
///     r#"for $x in doc("bib.xml")//book where $x/year = "1999" return $x/author"#,
/// ).unwrap();
/// assert!(matches!(q, xquery::Query::Flwr { .. }));
/// ```
pub fn parse_query(text: &str) -> Result<Query, QueryParseError> {
    let mut p = P {
        s: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let q = p.query()?;
    p.ws();
    if p.pos != p.s.len() {
        return Err(p.err("trailing input"));
    }
    Ok(q)
}

impl<'a> P<'a> {
    fn err(&self, m: &str) -> QueryParseError {
        QueryParseError {
            offset: self.pos,
            message: m.to_string(),
        }
    }

    /// Enter one nesting level; the caller steps back out with
    /// `self.depth -= 1` once the level is parsed.
    fn enter(&mut self) -> Result<(), QueryParseError> {
        if self.depth > MAX_NESTING {
            return Err(self.err(&format!("query nests deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> bool {
        if self.peek() == Some(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        let b = kw.as_bytes();
        self.s[self.pos..].starts_with(b)
            && !self
                .s
                .get(self.pos + b.len())
                .is_some_and(|c| c.is_ascii_alphanumeric() || *c == b'_')
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.at_kw(kw) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Result<String, QueryParseError> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected identifier"));
        }
        Ok(String::from_utf8_lossy(&self.s[start..self.pos]).into_owned())
    }

    fn string_lit(&mut self) -> Result<String, QueryParseError> {
        if !self.eat(b'"') {
            return Err(self.err("expected string literal"));
        }
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'"' {
                let out = String::from_utf8_lossy(&self.s[start..self.pos]).into_owned();
                self.pos += 1;
                return Ok(out);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated string"))
    }

    fn query(&mut self) -> Result<Query, QueryParseError> {
        self.ws();
        let first = self.item()?;
        self.ws();
        if self.peek() != Some(b',') {
            return Ok(first);
        }
        self.enter()?;
        let r = self.concat(first);
        self.depth -= 1;
        r
    }

    fn concat(&mut self, first: Query) -> Result<Query, QueryParseError> {
        let mut items = vec![first];
        while self.eat(b',') {
            items.push(self.item()?);
            self.ws();
        }
        Ok(Query::Concat(items))
    }

    fn item(&mut self) -> Result<Query, QueryParseError> {
        self.enter()?;
        let r = self.item_body();
        self.depth -= 1;
        r
    }

    fn item_body(&mut self) -> Result<Query, QueryParseError> {
        self.ws();
        if self.at_kw("for") {
            return self.flwr();
        }
        if self.peek() == Some(b'<') {
            return self.constructor();
        }
        if self.eat(b'(') {
            let q = self.query()?;
            self.ws();
            if !self.eat(b')') {
                return Err(self.err("expected `)`"));
            }
            return Ok(q);
        }
        Ok(Query::Path(self.path()?))
    }

    fn flwr(&mut self) -> Result<Query, QueryParseError> {
        self.enter()?;
        let r = self.flwr_body();
        self.depth -= 1;
        r
    }

    fn flwr_body(&mut self) -> Result<Query, QueryParseError> {
        self.ws();
        if !self.eat_kw("for") {
            return Err(self.err("expected `for`"));
        }
        let mut bindings = Vec::new();
        loop {
            self.ws();
            if !self.eat(b'$') {
                return Err(self.err("expected `$variable`"));
            }
            let var = self.ident()?;
            self.ws();
            if !self.eat_kw("in") {
                return Err(self.err("expected `in`"));
            }
            let path = self.path()?;
            bindings.push((var, path));
            self.ws();
            if self.eat(b',') {
                continue;
            }
            break;
        }
        self.ws();
        let mut conditions = Vec::new();
        if self.eat_kw("where") {
            loop {
                conditions.push(self.cond()?);
                self.ws();
                if self.eat_kw("and") {
                    continue;
                }
                break;
            }
        }
        self.ws();
        if !self.eat_kw("return") {
            return Err(self.err("expected `return`"));
        }
        let ret = self.item()?;
        Ok(Query::Flwr {
            bindings,
            conditions,
            ret: Box::new(ret),
        })
    }

    fn cond(&mut self) -> Result<Cond, QueryParseError> {
        let left = self.path()?;
        self.ws();
        if self.eat_kw("ftcontains") {
            self.ws();
            let w = self.string_lit()?;
            return Ok(Cond::FtContains(left, w));
        }
        let op = self.cmp_op()?;
        self.ws();
        match self.peek() {
            Some(b'"') => Ok(Cond::CmpConst(left, op, Const::Str(self.string_lit()?))),
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                Ok(Cond::CmpConst(left, op, Const::Int(self.int_lit()?)))
            }
            Some(b'$') | Some(b'd') | Some(b'/') => Ok(Cond::CmpPath(left, op, self.path()?)),
            _ => Err(self.err("expected constant or path after comparison")),
        }
    }

    fn cmp_op(&mut self) -> Result<CmpOp, QueryParseError> {
        self.ws();
        if self.eat_kw("!=") {
            Ok(CmpOp::Ne)
        } else if self.eat_kw("<=") {
            Ok(CmpOp::Le)
        } else if self.eat_kw(">=") {
            Ok(CmpOp::Ge)
        } else if self.eat(b'=') {
            Ok(CmpOp::Eq)
        } else if self.eat(b'<') {
            Ok(CmpOp::Lt)
        } else if self.eat(b'>') {
            Ok(CmpOp::Gt)
        } else {
            Err(self.err("expected comparison operator"))
        }
    }

    fn int_lit(&mut self) -> Result<i64, QueryParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .unwrap()
            .parse()
            .map_err(|_| self.err("expected integer"))
    }

    fn path(&mut self) -> Result<PathExpr, QueryParseError> {
        self.ws();
        let root = if self.eat(b'$') {
            PathRoot::Var(self.ident()?)
        } else if self.eat_kw("doc") || self.eat_kw("document") {
            self.ws();
            if !self.eat(b'(') {
                return Err(self.err("expected `(`"));
            }
            self.ws();
            let name = self.string_lit()?;
            self.ws();
            if !self.eat(b')') {
                return Err(self.err("expected `)`"));
            }
            PathRoot::Doc(name)
        } else if self.peek() == Some(b'/') {
            PathRoot::Doc(String::new()) // absolute path, implicit document
        } else {
            return Err(self.err("expected `doc(…)`, `$var` or `/`"));
        };
        let mut steps = Vec::new();
        loop {
            self.ws();
            if self.peek() != Some(b'/') {
                break;
            }
            self.pos += 1;
            let descendant = self.eat(b'/');
            let test = self.name_test()?;
            let mut preds = Vec::new();
            while self.peek() == Some(b'[') {
                preds.push(self.pred()?);
            }
            steps.push(Step {
                descendant,
                test,
                preds,
            });
        }
        if steps.is_empty() && matches!(root, PathRoot::Doc(_)) {
            return Err(self.err("absolute path needs at least one step"));
        }
        Ok(PathExpr { root, steps })
    }

    fn name_test(&mut self) -> Result<NameTest, QueryParseError> {
        self.ws();
        if self.eat(b'*') {
            return Ok(NameTest::Star);
        }
        if self.eat(b'@') {
            return Ok(NameTest::Attr(self.ident()?));
        }
        let id = self.ident()?;
        if id == "text" && self.eat(b'(') {
            if !self.eat(b')') {
                return Err(self.err("expected `)` after text("));
            }
            return Ok(NameTest::Text);
        }
        Ok(NameTest::Label(id))
    }

    fn pred(&mut self) -> Result<Pred, QueryParseError> {
        if !self.eat(b'[') {
            return Err(self.err("expected `[`"));
        }
        // relative path inside the predicate (no leading slash needed)
        let mut steps = Vec::new();
        loop {
            self.ws();
            let descendant = if self.peek() == Some(b'/') {
                self.pos += 1;
                self.eat(b'/')
            } else if steps.is_empty() {
                false // first step given without slash: child
            } else {
                break;
            };
            if self.peek() == Some(b']') || self.peek() == Some(b'=') {
                break;
            }
            let test = self.name_test()?;
            steps.push(Step {
                descendant,
                test,
                preds: Vec::new(),
            });
            if !matches!(self.peek(), Some(b'/')) {
                break;
            }
        }
        self.ws();
        let cmp = if matches!(self.peek(), Some(b'=' | b'<' | b'>' | b'!')) {
            let op = self.cmp_op()?;
            self.ws();
            let c = match self.peek() {
                Some(b'"') => Const::Str(self.string_lit()?),
                _ => Const::Int(self.int_lit()?),
            };
            Some((op, c))
        } else {
            None
        };
        self.ws();
        if !self.eat(b']') {
            return Err(self.err("expected `]`"));
        }
        Ok(Pred { path: steps, cmp })
    }

    fn constructor(&mut self) -> Result<Query, QueryParseError> {
        self.enter()?;
        let r = self.constructor_body();
        self.depth -= 1;
        r
    }

    fn constructor_body(&mut self) -> Result<Query, QueryParseError> {
        if !self.eat(b'<') {
            return Err(self.err("expected `<`"));
        }
        let tag = self.ident()?;
        self.ws();
        if !self.eat(b'>') {
            return Err(self.err("expected `>`"));
        }
        let mut content = Vec::new();
        loop {
            self.ws();
            if self.s[self.pos..].starts_with(b"</") {
                self.pos += 2;
                let close = self.ident()?;
                if close != tag {
                    return Err(self.err(&format!(
                        "mismatched constructor: <{tag}> closed by </{close}>"
                    )));
                }
                self.ws();
                if !self.eat(b'>') {
                    return Err(self.err("expected `>`"));
                }
                break;
            }
            if self.eat(b'{') {
                let q = self.query()?;
                self.ws();
                if !self.eat(b'}') {
                    return Err(self.err("expected `}`"));
                }
                content.push(q);
            } else if self.peek() == Some(b'<') {
                content.push(self.constructor()?);
            } else if self.at_kw("for") {
                // the paper writes nested FLWRs directly inside element
                // content (Fig. 3.1); accept them without enclosing braces
                content.push(self.flwr()?);
            } else {
                return Err(self.err("expected `{…}`, nested element, or close tag"));
            }
            // allow commas between enclosed expressions
            self.ws();
            let _ = self.eat(b',');
        }
        Ok(Query::Element { tag, content })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_absolute_and_doc_paths() {
        let q = parse_query(r#"doc("bib.xml")//book/title"#).unwrap();
        let Query::Path(p) = q else { panic!() };
        assert_eq!(p.root, PathRoot::Doc("bib.xml".into()));
        assert_eq!(p.steps.len(), 2);
        assert!(p.steps[0].descendant);
        assert!(!p.steps[1].descendant);
        // leading-slash form
        let q = parse_query("/a/b//c").unwrap();
        let Query::Path(p) = q else { panic!() };
        assert_eq!(p.steps.len(), 3);
    }

    #[test]
    fn parses_name_tests() {
        let q = parse_query(r#"doc("d")//*/@id/text()"#).unwrap();
        let Query::Path(p) = q else { panic!() };
        assert_eq!(p.steps[0].test, NameTest::Star);
        assert_eq!(p.steps[1].test, NameTest::Attr("id".into()));
        assert_eq!(p.steps[2].test, NameTest::Text);
        assert!(p.ends_in_text());
    }

    #[test]
    fn parses_predicates() {
        let q = parse_query(r#"//a[b/c]//e[d/text() = 5]"#).unwrap();
        let Query::Path(p) = q else { panic!() };
        assert_eq!(p.steps[0].preds.len(), 1);
        assert_eq!(p.steps[0].preds[0].path.len(), 2);
        assert!(p.steps[0].preds[0].cmp.is_none());
        let pr = &p.steps[1].preds[0];
        assert_eq!(pr.cmp, Some((CmpOp::Eq, Const::Int(5))));
        assert_eq!(pr.path.last().unwrap().test, NameTest::Text);
    }

    #[test]
    fn parses_flwr() {
        let q = parse_query(
            r#"for $x in doc("bib.xml")//book
               where $x/year = "1999" and $x/title = "Data on the Web"
               return $x/author"#,
        )
        .unwrap();
        let Query::Flwr {
            bindings,
            conditions,
            ret,
        } = q
        else {
            panic!()
        };
        assert_eq!(bindings.len(), 1);
        assert_eq!(bindings[0].0, "x");
        assert_eq!(conditions.len(), 2);
        assert!(matches!(*ret, Query::Path(_)));
    }

    #[test]
    fn parses_nested_flwr_with_constructors() {
        let q = parse_query(
            r#"for $x in doc("X")//item return
               <res_item>{$x/name},
                 for $y in $x//description return <res_desc>{$y//listitem}</res_desc>
               </res_item>"#,
        )
        .unwrap();
        let Query::Flwr { ret, .. } = q else { panic!() };
        let Query::Element { tag, content } = *ret else {
            panic!()
        };
        assert_eq!(tag, "res_item");
        assert_eq!(content.len(), 2);
        assert!(matches!(content[1], Query::Flwr { .. }));
    }

    #[test]
    fn parses_multi_variable_for() {
        let q =
            parse_query("for $x in /a/*, $y in $x//b where $y/c > 3 return <r>{$x/d}{$y/e}</r>")
                .unwrap();
        let Query::Flwr { bindings, .. } = q else {
            panic!()
        };
        assert_eq!(bindings.len(), 2);
        assert_eq!(bindings[1].1.root, PathRoot::Var("x".into()));
    }

    #[test]
    fn parses_value_join_condition() {
        let q = parse_query("for $x in //a, $y in //b where $x/k = $y/k return <r>{$x}</r>");
        // `$x` alone (no steps) is a valid variable path
        assert!(q.is_ok(), "{q:?}");
    }

    #[test]
    fn parses_ftcontains() {
        let q = parse_query(
            r#"for $x in doc("bib.xml")//book/title where $x ftcontains "Web" return $x"#,
        )
        .unwrap();
        let Query::Flwr { conditions, .. } = q else {
            panic!()
        };
        assert!(matches!(conditions[0], Cond::FtContains(..)));
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_query("for $x doc(\"d\")//a return $x").is_err());
        assert!(parse_query("<r>{//a}</s>").is_err());
        assert!(parse_query("//a[").is_err());
        assert!(parse_query("for $x in //a return").is_err());
        assert!(parse_query("").is_err());
    }

    /// `<a>{` … `}</a>` nested `levels` deep around one path.
    fn nested_constructors(levels: usize) -> String {
        "<a>{".repeat(levels) + "//b" + &"}</a>".repeat(levels)
    }

    #[test]
    fn nesting_past_the_cap_is_a_parse_error() {
        let parens = "(".repeat(20_000) + "//a" + &")".repeat(20_000);
        let err = parse_query(&parens).unwrap_err();
        assert!(err.message.contains("nests deeper"), "{err}");
        assert!(parse_query(&nested_constructors(20_000)).is_err());
        let flwrs = "for $x in //a return ".repeat(20_000) + "$x";
        assert!(parse_query(&flwrs).is_err());
        let sequences = "(//a,".repeat(20_000) + "//a" + &")".repeat(20_000);
        assert!(parse_query(&sequences).is_err());
    }

    #[test]
    fn nesting_up_to_the_cap_parses_on_a_two_megabyte_stack() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let parens = |n: usize| "(".repeat(n) + "//a" + &")".repeat(n);
                assert!(parse_query(&parens(MAX_NESTING)).is_ok());
                assert!(parse_query(&parens(MAX_NESTING + 1)).is_err());
                // a constructor level enters a constructor and an item
                let deepest = MAX_NESTING / 2;
                assert!(parse_query(&nested_constructors(deepest)).is_ok());
                assert!(parse_query(&nested_constructors(deepest + 1)).is_err());
            })
            .unwrap()
            .join()
            .unwrap();
    }
}
