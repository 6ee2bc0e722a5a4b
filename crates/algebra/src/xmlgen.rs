//! The XML construction operator `xml_templ` (§1.2.2, Example 1.2.4).
//!
//! A [`Template`] describes how the (possibly nested) attributes of each
//! input tuple are wrapped in newly constructed elements. For every input
//! tuple, `xml_templ` emits one serialized XML string; iteration over
//! nested collection attributes is explicit ([`Template::ForEach`]), which
//! is what the paper's tagging templates like
//! `<res_item> A1 <res_desc> A11 </res_desc> </res_item>` denote implicitly.
//!
//! A template is bound once to its input schema (`Template::bind`):
//! attribute names become column indices and `ForEach` bodies are bound to
//! the nested schema they iterate. Rendering a tuple then runs in constant
//! time per constructed element and needs no memory beyond the output,
//! matching the paper's `xml_templ,φ` physical operator.

use std::fmt::Write as _;

use crate::value::{FieldKind, Schema, Tuple, Value};

/// A tagging template.
#[derive(Debug, Clone, PartialEq)]
pub enum Template {
    /// Construct `<tag>…children…</tag>`.
    Element {
        tag: String,
        children: Vec<Template>,
    },
    /// Literal character data.
    Text(String),
    /// Splice the value of an attribute of the current tuple (dotted name
    /// resolved against the *current* nesting level). Null splices nothing —
    /// "an element must still be constructed, albeit with no content" (§3.1).
    /// So does a name that is unknown or crosses a nested collection.
    Attr(String),
    /// Iterate the tuples of a collection attribute of the current tuple,
    /// instantiating `body` once per nested tuple. An unknown or atomic
    /// attribute iterates nothing.
    ForEach { attr: String, body: Vec<Template> },
}

impl Template {
    pub fn elem(tag: impl Into<String>, children: Vec<Template>) -> Template {
        Template::Element {
            tag: tag.into(),
            children,
        }
    }

    pub fn attr(name: impl Into<String>) -> Template {
        Template::Attr(name.into())
    }

    pub fn for_each(attr: impl Into<String>, body: Vec<Template>) -> Template {
        Template::ForEach {
            attr: attr.into(),
            body,
        }
    }

    /// Resolve every attribute against `schema` once; the result renders
    /// tuples of that schema.
    pub(crate) fn bind(&self, schema: &Schema) -> BoundTemplate {
        let mut parts = Vec::new();
        self.bind_into(schema, &mut parts);
        BoundTemplate { parts }
    }

    fn bind_into(&self, schema: &Schema, out: &mut Vec<Part>) {
        // adjacent literals are emitted as one
        fn text(out: &mut Vec<Part>, s: &str) {
            match out.last_mut() {
                Some(Part::Text(t)) => t.push_str(s),
                _ => out.push(Part::Text(s.to_string())),
            }
        }
        match self {
            Template::Element { tag, children } => {
                text(out, &format!("<{tag}>"));
                for c in children {
                    c.bind_into(schema, out);
                }
                text(out, &format!("</{tag}>"));
            }
            Template::Text(t) => text(out, t),
            Template::Attr(name) => {
                if let Some(&[i]) = schema.resolve(name).as_deref() {
                    out.push(Part::Col(i));
                }
            }
            Template::ForEach { attr, body } => {
                let Some(i) = schema.index_of(attr) else {
                    return;
                };
                if let FieldKind::Nested(inner) = &schema.fields[i].kind {
                    let mut parts = Vec::new();
                    for b in body {
                        b.bind_into(inner, &mut parts);
                    }
                    out.push(Part::ForEach(i, parts));
                }
            }
        }
    }
}

/// A [`Template`] bound to its input schema by [`Template::bind`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BoundTemplate {
    parts: Vec<Part>,
}

/// One step of a bound template, in output order.
#[derive(Debug, Clone, PartialEq)]
enum Part {
    /// Literal markup or character data.
    Text(String),
    /// The value of this column of the current tuple.
    Col(usize),
    /// The parts, once per tuple of this collection column.
    ForEach(usize, Vec<Part>),
}

impl BoundTemplate {
    /// Instantiate the template for one tuple, appending to `out`.
    pub(crate) fn render(&self, tuple: &Tuple, out: &mut String) {
        render_parts(&self.parts, tuple, out);
    }
}

fn render_parts(parts: &[Part], tuple: &Tuple, out: &mut String) {
    for p in parts {
        match p {
            Part::Text(t) => out.push_str(t),
            Part::Col(i) => render_value(tuple.get(*i), out),
            Part::ForEach(i, body) => {
                if let Value::Coll(c) = tuple.get(*i) {
                    for t in &c.tuples {
                        render_parts(body, t, out);
                    }
                }
            }
        }
    }
}

fn render_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => {}
        Value::Str(s) => out.push_str(s),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Id(i) => {
            let _ = write!(out, "({},{})", i.pre, i.post);
        }
        Value::Coll(c) => {
            for t in &c.tuples {
                for v in &t.0 {
                    render_value(v, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{CollKind, Collection, Field};
    use xmltree::StructuralId;

    fn render(t: &Template, schema: &Schema, tuple: &Tuple) -> String {
        let mut out = String::new();
        t.bind(schema).render(tuple, &mut out);
        out
    }

    #[test]
    fn renders_nested_template() {
        // schema R(A1(A11)), template <res_item>{A1…<res_desc>{A11}</res_desc>}</res_item>
        let schema = Schema::new(vec![Field::nested("A1", Schema::atoms(&["A11"]))]);
        let tuple = Tuple::new(vec![Value::Coll(Collection {
            kind: CollKind::List,
            tuples: vec![
                Tuple::new(vec![Value::str("x")]),
                Tuple::new(vec![Value::str("y")]),
            ],
        })]);
        let t = Template::elem(
            "res_item",
            vec![Template::for_each(
                "A1",
                vec![Template::elem("res_desc", vec![Template::attr("A11")])],
            )],
        );
        assert_eq!(
            render(&t, &schema, &tuple),
            "<res_item><res_desc>x</res_desc><res_desc>y</res_desc></res_item>"
        );
    }

    #[test]
    fn null_splices_nothing_but_element_is_built() {
        let schema = Schema::atoms(&["A"]);
        let tuple = Tuple::new(vec![Value::Null]);
        let t = Template::elem("res", vec![Template::attr("A")]);
        assert_eq!(render(&t, &schema, &tuple), "<res></res>");
    }

    #[test]
    fn empty_collection_renders_nothing() {
        let schema = Schema::new(vec![Field::nested("A", Schema::atoms(&["B"]))]);
        let tuple = Tuple::new(vec![Value::Coll(Collection::list(vec![]))]);
        let t = Template::elem(
            "r",
            vec![Template::for_each("A", vec![Template::attr("B")])],
        );
        assert_eq!(render(&t, &schema, &tuple), "<r></r>");
    }

    /// What the by-name renderer this one replaced produced: unknown
    /// names, names crossing a collection and `ForEach` over an atom or
    /// over `⊥` render nothing; the element around them is still built,
    /// and every value kind renders as before.
    #[test]
    fn unresolvable_attributes_render_nothing() {
        let schema = Schema::new(vec![
            Field::atom("A"),
            Field::nested("N", Schema::atoms(&["B"])),
            Field::atom("I"),
            Field::atom("D"),
        ]);
        let nested = Value::Coll(Collection::list(vec![
            Tuple::new(vec![Value::str("b1")]),
            Tuple::new(vec![Value::Int(2)]),
        ]));
        let tuple = Tuple::new(vec![
            Value::str("a"),
            nested,
            Value::Int(-7),
            Value::Id(StructuralId::new(3, 9, 2)),
        ]);
        let t = Template::elem(
            "r",
            vec![
                Template::Text("t:".into()),
                Template::attr("A"),
                Template::attr("Nope"),
                Template::attr("N.B"),
                Template::attr("A.B"),
                Template::elem("n", vec![Template::attr("N")]),
                Template::for_each("A", vec![Template::attr("A")]),
                Template::for_each("Nope", vec![Template::Text("x".into())]),
                Template::attr("I"),
                Template::attr("D"),
            ],
        );
        assert_eq!(render(&t, &schema, &tuple), "<r>t:a<n>b12</n>-7(3,9)</r>");
        // `ForEach` over a `⊥` in a collection column iterates nothing
        let nulls = Tuple::new(vec![Value::Null, Value::Null, Value::Null, Value::Null]);
        let each = Template::elem(
            "r",
            vec![Template::for_each("N", vec![Template::elem("b", vec![])])],
        );
        assert_eq!(render(&each, &schema, &nulls), "<r></r>");
        assert_eq!(render(&t, &schema, &nulls), "<r>t:<n></n></r>");
    }
}
