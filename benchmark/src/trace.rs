//! In-memory spans recorded by the benchmark around its calls into each
//! layer, written out as Chrome trace-event JSON when the run ends.

use std::collections::BTreeMap;

use crate::json::Json;

/// One interval of work attributed to a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request sequence id shared by all spans of one request (0 = set-up).
    pub seq: u64,
    /// Client thread (0 = the main thread).
    pub tid: u32,
    pub start_us: f64,
    pub dur_us: f64,
    /// Laid out from the statistics a call returned, not clocked directly.
    pub derived: bool,
}

#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Records a span and returns its index, for use as a `parent`.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Per span, its duration minus the part of its interval its children
    /// cover (children may overlap each other or stick out of the parent).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for c in &self.spans {
            if let Some(parent) = c.parent {
                children[parent].push((c.start_us, c.start_us + c.dur_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut kids)| {
                let (lo, hi) = (span.start_us, span.start_us + span.dur_us);
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut covered = 0.0;
                let mut reach = lo;
                for (s, e) in kids {
                    let (s, e) = (s.max(reach), e.min(hi));
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                span.dur_us - covered
            })
            .collect()
    }

    /// Total self time per span name, in µs.
    pub fn self_times_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(self.self_times_us()) {
            *out.entry(span.name).or_insert(0.0) += self_us;
        }
        out
    }

    /// The trace as Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    pub fn to_chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![
                    ("seq".to_string(), Json::Num(s.seq as f64)),
                    ("id".to_string(), Json::Num(id as f64)),
                ];
                if let Some(parent) = s.parent {
                    args.push(("parent".to_string(), Json::Num(parent as f64)));
                }
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    (
                        "cat".into(),
                        Json::Str(if s.derived { "derived" } else { "measured" }.into()),
                    ),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_us)),
                    ("dur".into(), Json::Num(s.dur_us)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(f64::from(s.tid))),
                    ("args".into(), Json::Obj(args)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("displayTimeUnit".into(), Json::Str("ms".into())),
            ("traceEvents".into(), Json::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_us: f64, dur_us: f64) -> Span {
        Span { name, parent, seq: 1, tid: 0, start_us, dur_us, derived: false }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let root = t.push(span("request", None, 100.0, 100.0));
        let a = t.push(span("a", Some(root), 100.0, 40.0));
        t.push(span("b", Some(root), 130.0, 30.0)); // overlaps `a` by 10
        t.push(span("c", Some(root), 190.0, 30.0)); // sticks out by 20
        t.push(span("grandchild", Some(a), 110.0, 15.0));
        // Children cover [100,160] and [190,200] of [100,200].
        let own = t.self_times_us();
        assert_eq!((own[root], own[a]), (30.0, 25.0));
        let by_name = t.self_times_by_name();
        assert_eq!(by_name["grandchild"], 15.0);
        assert_eq!(by_name["request"], 30.0);
    }

    #[test]
    fn abutting_children_leave_no_self_time() {
        let mut t = Trace::default();
        let root = t.push(span("core.model_run", None, 0.0, 10.0));
        t.push(span("vm.program", Some(root), 0.0, 6.0));
        t.push(span("runtime.flush", Some(root), 6.0, 3.0));
        t.push(span("vm.io_other", Some(root), 9.0, 1.0));
        assert_eq!(t.self_times_us()[root], 0.0);
    }

    #[test]
    fn chrome_events_carry_request_id_and_parent() {
        let mut t = Trace::default();
        let root = t.push(span("request", None, 0.0, 5.0));
        t.push(Span { derived: true, ..span("vm.program", Some(root), 0.0, 2.0) });
        let doc = t.to_chrome_json();
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(events)) => events,
            other => panic!("traceEvents: {other:?}"),
        };
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("cat"), Some(&Json::Str("derived".into())));
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("parent")).and_then(Json::as_f64),
            Some(0.0)
        );
        assert_eq!(
            events[1].get("args").and_then(|a| a.get("seq")).and_then(Json::as_f64),
            Some(1.0)
        );
    }
}
