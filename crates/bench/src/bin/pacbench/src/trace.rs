//! The traced run's span recorder. It lives here, not in the program:
//! spans are taken by the harness around its calls into each layer's
//! public functions. Spans inside the program are a later issue.
//!
//! Every harness call in a traced phase pushes a *root* span. Every
//! 64th root is then replayed: the same request's inputs go through
//! each layer below it by that layer's public entry point (proto encode
//! → frame write → frame read → proto decode → store call → cpam call →
//! codec call), one child span per step, linked by `parent` and sharing
//! the root's `request_id`. A replayed child runs after its parent
//! rather than inside it, so the interval a span's children "cover" is
//! the sum of their durations: a layer's self time is its span minus
//! that sum.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Where a span was taken. One name per (layer, entry point).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum SpanName {
    Get,
    Put,
    Scan,
    Bulk,
    ServerReqEncode,
    ServerFrameWrite,
    ServerFrameRead,
    ServerReqDecode,
    ServerRespEncode,
    ServerRespDecode,
    StoreGet,
    StoreCommit,
    CpamFind,
    CpamInsert,
    CpamRange,
    CodecSearch,
    CodecEncode,
    CodecScan,
}

impl SpanName {
    pub const ALL: [SpanName; 18] = [
        SpanName::Get,
        SpanName::Put,
        SpanName::Scan,
        SpanName::Bulk,
        SpanName::ServerReqEncode,
        SpanName::ServerFrameWrite,
        SpanName::ServerFrameRead,
        SpanName::ServerReqDecode,
        SpanName::ServerRespEncode,
        SpanName::ServerRespDecode,
        SpanName::StoreGet,
        SpanName::StoreCommit,
        SpanName::CpamFind,
        SpanName::CpamInsert,
        SpanName::CpamRange,
        SpanName::CodecSearch,
        SpanName::CodecEncode,
        SpanName::CodecScan,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            SpanName::Get => "request.get",
            SpanName::Put => "request.put",
            SpanName::Scan => "request.scan",
            SpanName::Bulk => "request.bulk",
            SpanName::ServerReqEncode => "server.req_encode",
            SpanName::ServerFrameWrite => "server.frame_write",
            SpanName::ServerFrameRead => "server.frame_read",
            SpanName::ServerReqDecode => "server.req_decode",
            SpanName::ServerRespEncode => "server.resp_encode",
            SpanName::ServerRespDecode => "server.resp_decode",
            SpanName::StoreGet => "store.get",
            SpanName::StoreCommit => "store.commit",
            SpanName::CpamFind => "cpam.find",
            SpanName::CpamInsert => "cpam.insert",
            SpanName::CpamRange => "cpam.range",
            SpanName::CodecSearch => "codecs.search",
            SpanName::CodecEncode => "codecs.encode",
            SpanName::CodecScan => "codecs.scan",
        }
    }
}

#[derive(Clone, Copy)]
pub struct Span {
    pub name: SpanName,
    pub parent: u32,
    pub request_id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span store; written out once, when the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: SpanName,
        parent: u32,
        request_id: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            parent,
            request_id,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<R>(&mut self, name: SpanName, parent: u32, f: impl FnOnce() -> R) -> (u32, R) {
        let request_id = self.spans[parent as usize].request_id;
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        let id = self.push(name, parent, request_id, self.at(start), self.at(end));
        (id, r)
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Mean duration and mean self time (ns) of the spans named `name`
    /// that are, or descend from, a root named `root`. Only replayed
    /// requests have children, so `root`'s own figures are taken over
    /// the replayed roots alone, which keeps every row of a ledger on
    /// the same requests.
    pub fn ledger(&self, root: SpanName) -> Vec<LedgerRow> {
        let n = self.spans.len();
        let mut child_ns = vec![0u64; n];
        let mut has_child = vec![false; n];
        // Children always follow their parent, so one forward pass
        // resolves every span's root.
        let mut root_of = vec![NO_PARENT; n];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent == NO_PARENT {
                root_of[i] = i as u32;
            } else {
                let p = s.parent as usize;
                root_of[i] = root_of[p];
                child_ns[p] += s.end_ns - s.start_ns;
                has_child[p] = true;
            }
        }
        let mut rows: Vec<LedgerRow> = SpanName::ALL
            .iter()
            .map(|&name| LedgerRow {
                name,
                count: 0,
                mean_ns: 0.0,
                self_ns: 0.0,
            })
            .collect();
        for (i, s) in self.spans.iter().enumerate() {
            let r = root_of[i] as usize;
            if self.spans[r].name != root || !has_child[r] {
                continue;
            }
            let row = &mut rows[s.name as usize];
            let dur = s.end_ns - s.start_ns;
            row.count += 1;
            row.mean_ns += dur as f64;
            row.self_ns += dur.saturating_sub(child_ns[i]) as f64;
        }
        rows.retain(|r| r.count > 0);
        for r in &mut rows {
            r.mean_ns /= r.count as f64;
            r.self_ns /= r.count as f64;
        }
        rows
    }

    /// Share of the replayed `root` requests' mean time that no child
    /// layer accounts for, in percent: the root's self time over its
    /// duration. Negative when the layers, called one by one, cost more
    /// than the request that contains them all (cold caches in replay).
    pub fn unattributed_pct(&self, root: SpanName) -> f64 {
        let rows = self.ledger(root);
        let Some(top) = rows.iter().find(|r| r.name == root) else {
            return 0.0;
        };
        let below: f64 = rows
            .iter()
            .filter(|r| r.name != root)
            .map(|r| r.self_ns * r.count as f64 / top.count as f64)
            .sum();
        (top.mean_ns - below) / top.mean_ns * 100.0
    }

    /// Writes the replayed requests' spans (roots and descendants) as
    /// JSON lines; roots that were not replayed carry no layer
    /// information and are left out to keep the file small.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<usize> {
        let n = self.spans.len();
        let mut keep = vec![false; n];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != NO_PARENT {
                keep[i] = true;
                keep[s.parent as usize] = true;
            }
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0usize;
        for (i, s) in self.spans.iter().enumerate() {
            if !keep[i] {
                continue;
            }
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request_id\": {}}}",
                s.name.as_str(),
                s.start_ns,
                s.end_ns,
                s.request_id
            )?;
            written += 1;
        }
        out.flush()?;
        Ok(written)
    }
}

/// One line of a request ledger.
pub struct LedgerRow {
    pub name: SpanName,
    pub count: u64,
    pub mean_ns: f64,
    pub self_ns: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new();
        let root = rec.push(SpanName::Get, NO_PARENT, 7, 0, 1000);
        let store = rec.push(SpanName::StoreGet, root, 7, 1000, 1600);
        rec.push(SpanName::CpamFind, store, 7, 1600, 2000);
        // A root that was not replayed must not dilute the ledger.
        rec.push(SpanName::Get, NO_PARENT, 8, 2000, 9000);
        let rows = rec.ledger(SpanName::Get);
        let get = rows.iter().find(|r| r.name == SpanName::Get).unwrap();
        assert_eq!((get.count, get.mean_ns, get.self_ns), (1, 1000.0, 400.0));
        let st = rows.iter().find(|r| r.name == SpanName::StoreGet).unwrap();
        assert_eq!((st.mean_ns, st.self_ns), (600.0, 200.0));
        // 1000 total, 200 store self + 400 cpam self attributed below.
        assert!((rec.unattributed_pct(SpanName::Get) - 40.0).abs() < 1e-9);
    }

    #[test]
    fn jsonl_keeps_only_replayed_requests() {
        let mut rec = Recorder::new();
        let root = rec.push(SpanName::Put, NO_PARENT, 1, 0, 10);
        rec.push(SpanName::StoreCommit, root, 1, 10, 15);
        rec.push(SpanName::Put, NO_PARENT, 2, 15, 30);
        let dir = crate::scratch_root().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        assert_eq!(rec.write_jsonl(&path).unwrap(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().next().unwrap().contains("\"parent\": null"));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\": 0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
