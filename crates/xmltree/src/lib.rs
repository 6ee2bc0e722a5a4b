//! # xmltree — XML data model, parser, structural identifiers, generators
//!
//! This crate is the bottom-most substrate of the ULoad reproduction. It
//! implements the XML data model of the paper (§1.1): a document is a tree
//! whose nodes are the document node, element nodes and attribute nodes.
//! Text is kept as first-class leaf nodes (the extension the paper mentions)
//! and the *value* of an element is the concatenation of the text of its
//! descendants, matching XPath's `text()`/string-value semantics used in the
//! thesis.
//!
//! The crate also provides:
//!
//! * [`ids`] — `(pre, post, depth)` structural identifiers (§1.2.1) and the
//!   pre/post-plane predicates (ancestor, descendant, precede, follow);
//! * [`dewey`] — navigational structural identifiers in the style of
//!   DeweyIDs/ORDPATHs, from which a parent's identifier is derivable;
//! * [`parser`] — a hand-rolled, dependency-free XML parser and serializer;
//! * [`generate`] — deterministic synthetic document generators standing in
//!   for the paper's datasets (XMark, DBLP, Shakespeare, NASA, SwissProt and
//!   the running `bib.xml` examples).

pub mod dewey;
pub mod document;
pub mod generate;
pub mod ids;
pub mod parser;

pub use dewey::DeweyId;
pub use document::{Document, DocumentBuilder, NodeId, NodeIds, NodeKind};
pub use ids::StructuralId;
pub use parser::{parse_document, ParseError};
