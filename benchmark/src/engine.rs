//! The calls into the engine that more than one workload makes: the
//! load path behind `load_s`, the oracle, and the two executors.
//!
//! Every call goes through [`Tracer::timed`], so an untraced run times
//! the façade call alone and a traced run records the same call as a
//! span. Where the façade has public stages (`add_view_text` =
//! `parse_xam` + `add_view`), the traced run calls the stages.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use uload::prelude::*;

use crate::inputs::DocInput;
use crate::report::Layers;
use crate::trace::Tracer;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// A document made queryable: everything `load_s` pays for.
pub struct Loaded {
    pub engine: Uload,
    pub handle: DocumentHandle,
    /// Built on every load as a server would; held so its memory counts.
    pub id_streams: IdStreamIndex,
}

/// XML text → queryable: `parse_document` → `Uload::builder().build()`
/// → `add_view_text` × views → `id_stream_index` → `DocumentHandle::new`.
/// Returns the wall time in seconds beside the products.
pub fn load(
    input: &DocInput,
    config: &EngineConfig,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> uload::Result<(Loaded, f64)> {
    let t = Instant::now();
    let span = tr.open("load");
    let (doc, ms) = tr.timed("xmltree.parse", || parse_document(&input.xml));
    let doc = doc?;
    layers.add("xmltree.parse_ms", ms);
    // engine assembly is Summary::of_document plus a fingerprint of it
    let (engine, ms) = tr.timed("summary.build", || {
        Uload::builder()
            .document(&doc)
            .config(config.clone())
            .build()
    });
    let mut engine = engine?;
    layers.add("summary.build_ms", ms);
    for (name, text) in &input.views {
        if tr.enabled() {
            let (xam, ms) = tr.timed("core.parse_xam", || parse_xam(text));
            layers.add("core.parse_xam_ms", ms);
            let (added, ms) = tr.timed("storage.materialize", || {
                engine.add_view(name.clone(), xam?, &doc)
            });
            added?;
            layers.add("storage.views_materialize_ms", ms);
        } else {
            engine.add_view_text(name.clone(), text, &doc)?;
        }
    }
    let (id_streams, ms) = tr.timed("storage.idstream_build", || engine.id_stream_index(&doc));
    layers.add("storage.idstream_build_ms", ms);
    // counts add up over the documents of one load pass
    layers.add("xmltree.nodes", doc.len() as f64);
    layers.add("summary.paths", engine.summary().len() as f64);
    layers.add("storage.view_tuples", engine.store().total_tuples() as f64);
    layers.add("storage.idstream_ids", id_streams.total_ids() as f64);
    let handle = DocumentHandle::new(doc);
    tr.close(span);
    Ok((
        Loaded {
            engine,
            handle,
            id_streams,
        },
        t.elapsed().as_secs_f64(),
    ))
}

/// An order-independent digest of a result: equal digests mean equal
/// multisets of rows (up to a 64-bit hash collision). Cheap enough to
/// check every answer of every round without sorting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    rows: u64,
    sum: u64,
}

impl Digest {
    pub fn of<'a>(rows: impl IntoIterator<Item = &'a str>) -> Digest {
        let mut d = Digest { rows: 0, sum: 0 };
        for r in rows {
            d.push(r);
        }
        d
    }

    pub fn push(&mut self, row: &str) {
        let mut h = DefaultHasher::new();
        row.hash(&mut h);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(h.finish());
    }

    pub fn rows(&self) -> u64 {
        self.rows
    }
}

/// What the oracle says a query returns: `Uload::execute_direct` on the
/// same document, no views involved.
pub fn oracle(text: &str, doc: &Document) -> uload::Result<Digest> {
    let out = Uload::execute_direct(text, doc)?;
    Ok(Digest::of(out.items.iter().map(|i| i.xml.as_str())))
}

/// Materialized execution: plan in → last serialized row out.
pub fn run_materialized(
    engine: &Uload,
    prep: &PreparedQuery,
    handle: &DocumentHandle,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> uload::Result<(Digest, f64)> {
    let (out, exec_ms) = tr.timed("algebra.exec_mat", || engine.execute_prepared(prep, handle));
    let out = out?;
    let (rows, ser_ms) = tr.timed("algebra.serialize", || out.into_strings());
    layers.add("algebra.exec_mat_ms", exec_ms);
    layers.add("algebra.serialize_ms", ser_ms);
    Ok((
        Digest::of(rows.iter().map(String::as_str)),
        exec_ms + ser_ms,
    ))
}

/// What draining a stream measured.
pub struct Streamed {
    pub digest: Digest,
    pub total_ms: f64,
    pub first_batch_ms: f64,
    pub peak_resident_tuples: u64,
}

/// Drain a result stream batch by batch, serializing rows as the server
/// does. `started` is when the request began (before planning, for the
/// ad-hoc path).
pub fn drain(results: &mut QueryResults<'_>, started: Instant) -> uload::Result<Streamed> {
    let mut digest = Digest::of([]);
    let mut first_batch_ms = None;
    loop {
        let batch = results.next_batch()?;
        first_batch_ms.get_or_insert_with(|| ms_since(started));
        let Some(batch) = batch else { break };
        for t in &batch.tuples {
            digest.push(t.get(0).as_str().unwrap_or(""));
        }
    }
    Ok(Streamed {
        digest,
        total_ms: ms_since(started),
        first_batch_ms: first_batch_ms.unwrap_or(0.0),
        peak_resident_tuples: results.peak_resident_tuples(),
    })
}

/// Streamed execution of a prepared plan, drained.
pub fn run_streamed(
    engine: &Uload,
    prep: &PreparedQuery,
    handle: &DocumentHandle,
    tr: &mut Tracer,
    layers: &mut Layers,
) -> uload::Result<Streamed> {
    let (out, _) = tr.timed("algebra.exec_stream", || {
        let started = Instant::now();
        drain(&mut engine.stream_prepared(prep, handle)?, started)
    });
    let out = out?;
    layers.add("algebra.exec_stream_ms", out.total_ms);
    layers.add("algebra.first_batch_ms", out.first_batch_ms);
    layers.max(
        "algebra.peak_resident_tuples",
        out.peak_resident_tuples as f64,
    );
    Ok(out)
}

/// A fixed spin kernel (an xorshift chain the optimizer cannot fold):
/// timed every round as the machine-noise reference `harness.calib_ms`.
pub fn calibration_spin() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1du64);
    for _ in 0..3_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    ms_since(t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_multiplicity() {
        let a = Digest::of(["x", "y", "y"]);
        assert_eq!(a, Digest::of(["y", "x", "y"]));
        assert_ne!(a, Digest::of(["x", "y"]));
        assert_ne!(a, Digest::of(["x", "x", "y"]));
        assert_eq!(a.rows(), 3);
    }
}
