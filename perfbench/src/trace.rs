//! In-memory span recording around the benchmark's calls into each layer,
//! written out once at exit as a Chrome trace (loadable in Perfetto).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    call: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder plus the per-layer samples the spans yield.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Duration samples (seconds) per layer name.
    times: BTreeMap<&'static str, Vec<f64>>,
    /// Count samples per name, one per traced call that produced it.
    counts: BTreeMap<&'static str, Vec<f64>>,
    /// Values kept exactly as last recorded (determinism checks).
    values: BTreeMap<&'static str, f64>,
    /// Sizes of the payload chunks the traced calls staged, in bytes.
    pub chunks: Vec<usize>,
}

impl Tracer {
    /// An empty recorder whose timestamps count from now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            times: BTreeMap::new(),
            counts: BTreeMap::new(),
            values: BTreeMap::new(),
            chunks: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, call: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            call,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes `id`, returning its duration in seconds.
    pub fn end(&mut self, id: SpanId) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = end_ns;
        (end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named after the layer entry point it calls,
    /// records the duration as a sample of that layer, and returns `f`'s
    /// result with the duration in seconds.
    pub fn layer<T>(
        &mut self,
        name: &'static str,
        call: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, call, parent);
        let out = f();
        let secs = self.end(id);
        self.sample(name, secs);
        (out, secs)
    }

    /// Records a duration sample (seconds) under `name`.
    pub fn sample(&mut self, name: &'static str, secs: f64) {
        self.times.entry(name).or_default().push(secs);
    }

    /// Records one count observation under `name`.
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Keeps `value` under `name` exactly, replacing any earlier one.
    pub fn set_value(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value last kept under `name`; 0 when never recorded.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Duration samples of `name` in seconds (empty if never recorded).
    pub fn times(&self, name: &str) -> &[f64] {
        self.times.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Mean of the count observations of `name`; 0 when never recorded.
    pub fn mean_count(&self, name: &str) -> f64 {
        match self.counts.get(name) {
            Some(v) if !v.is_empty() => v.iter().sum::<f64>() / v.len() as f64,
            _ => 0.0,
        }
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome Trace Event JSON: one complete (`X`) event per span, with
    /// the call id and parent span as args; `meta` lands in `otherData`.
    pub fn to_chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"call\":{},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.call,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("],\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(
                out,
                "\"{k}\":\"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_share_call_ids() {
        let mut t = Tracer::new();
        let root = t.begin("bench.call", 7, None);
        let (v, secs) = t.layer("core.plan", 7, Some(root), || 41 + 1);
        assert!(secs >= 0.0);
        t.end(root);
        assert_eq!(v, 42);
        assert_eq!(t.times("core.plan").len(), 1);
        assert!(t.times("mpisim.exec").is_empty());
        let json = t.to_chrome_json(&[("seed", "1".into())]);
        assert!(json.contains("\"name\":\"core.plan\""));
        assert!(json.contains("\"call\":7,\"parent\":0"));
        assert!(json.contains("\"call\":7,\"parent\":null"));
        assert!(json.contains("\"seed\":\"1\""));
    }
}
