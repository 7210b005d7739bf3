//! Trace analyses: aggregate span tables, per-span value distributions,
//! the paper's rank-imbalance metric, per-pair communication matrix, and
//! a critical-path summary from matched send/recv spans.

use std::collections::BTreeMap;

use crate::{SpanRec, Trace};

/// Aggregate statistics for all spans sharing a name.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanAgg {
    pub name: String,
    pub count: u64,
    /// Wall seconds inside the span (children included).
    pub total_s: f64,
    /// Wall seconds minus direct children (the span's own work).
    pub self_s: f64,
}

/// Top-`n` span names by total time, with self time (total minus
/// direct children on the same thread track).
pub fn top_spans(trace: &Trace, n: usize) -> Vec<SpanAgg> {
    // Child time attribution needs parent links; rebuild them per track
    // with an end-time stack over begin-sorted spans.
    let mut order: Vec<usize> = (0..trace.spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &trace.spans[i];
        (s.tid, s.begin_ns, std::cmp::Reverse(s.end_ns))
    });
    let mut child_s = vec![0.0f64; trace.spans.len()];
    let mut stack: Vec<usize> = Vec::new(); // indices of open ancestors
    let mut cur_tid = None;
    for &i in &order {
        let s = &trace.spans[i];
        if cur_tid != Some(s.tid) {
            stack.clear();
            cur_tid = Some(s.tid);
        }
        while let Some(&top) = stack.last() {
            if trace.spans[top].end_ns <= s.begin_ns {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            child_s[parent] += s.dur_s();
        }
        stack.push(i);
    }
    let mut agg: BTreeMap<&str, SpanAgg> = BTreeMap::new();
    for (i, s) in trace.spans.iter().enumerate() {
        let e = agg.entry(&s.name).or_insert_with(|| SpanAgg {
            name: s.name.clone(),
            count: 0,
            total_s: 0.0,
            self_s: 0.0,
        });
        e.count += 1;
        e.total_s += s.dur_s();
        e.self_s += (s.dur_s() - child_s[i]).max(0.0);
    }
    let mut v: Vec<SpanAgg> = agg.into_values().collect();
    v.sort_by(|a, b| b.total_s.total_cmp(&a.total_s));
    v.truncate(n);
    v
}

/// Exact distribution of one per-span quantity (nearest-rank quantiles).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Distribution {
    pub count: usize,
    pub p50: u64,
    pub p99: u64,
    pub max: u64,
}

/// Distribution of `value` over every span named `name` — e.g. `send`
/// bytes (`arg1`) or `recv_wait` / `box` durations (`dur_ns`). `None`
/// when no span has that name.
pub fn distribution(
    trace: &Trace,
    name: &str,
    value: impl Fn(&SpanRec) -> u64,
) -> Option<Distribution> {
    let mut v: Vec<u64> = trace
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(value)
        .collect();
    v.sort_unstable();
    let max = *v.last()?;
    let rank = |q: f64| v[(q * v.len() as f64).ceil() as usize - 1];
    Some(Distribution {
        count: v.len(),
        p50: rank(0.5),
        p99: rank(0.99),
        max,
    })
}

/// Busy seconds per rank: total duration of top-level (depth 0) spans
/// owned by each rank `>= 0`.
pub fn rank_busy_seconds(trace: &Trace) -> BTreeMap<i32, f64> {
    let mut busy: BTreeMap<i32, f64> = BTreeMap::new();
    for s in &trace.spans {
        if s.rank >= 0 && s.depth == 0 {
            *busy.entry(s.rank).or_default() += s.dur_s();
        }
    }
    busy
}

/// The paper's load-balance metric: max/mean of per-rank busy time.
/// `None` when fewer than two ranks appear in the trace.
pub fn imbalance(trace: &Trace) -> Option<f64> {
    let busy = rank_busy_seconds(trace);
    if busy.len() < 2 {
        return None;
    }
    let max = busy.values().fold(0.0f64, |a, &b| a.max(b));
    let mean = busy.values().sum::<f64>() / busy.len() as f64;
    (mean > 0.0).then(|| max / mean)
}

/// Per-pair payload bytes from `send` spans: `matrix[src][dst]`.
pub fn comm_matrix(trace: &Trace, nranks: usize) -> Vec<Vec<u64>> {
    let mut m = vec![vec![0u64; nranks]; nranks];
    for s in &trace.spans {
        if s.name == "send" && s.rank >= 0 && (s.rank as usize) < nranks {
            let dst = s.arg0;
            if (0..nranks as i64).contains(&dst) && s.arg1 > 0 {
                m[s.rank as usize][dst as usize] += s.arg1 as u64;
            }
        }
    }
    m
}

/// Seconds each rank spent blocked in `recv_wait` spans — idle time a
/// cost-aware rebalance could reclaim.
pub fn recv_wait_seconds(trace: &Trace, nranks: usize) -> Vec<f64> {
    let mut w = vec![0.0f64; nranks];
    for s in &trace.spans {
        if s.name == "recv_wait" && s.rank >= 0 && (s.rank as usize) < nranks {
            w[s.rank as usize] += s.dur_s();
        }
    }
    w
}

/// Critical path through the message-passing execution DAG.
#[derive(Clone, Debug)]
pub struct CriticalPath {
    /// Length of the heaviest dependency chain (lower bound on wall
    /// time with perfect overlap everywhere else).
    pub total_s: f64,
    /// Wall-clock extent of the trace, for comparison.
    pub wall_s: f64,
    /// Chain seconds by span name (`compute` = inter-message gaps),
    /// heaviest first.
    pub by_name: Vec<(String, f64)>,
}

#[derive(Clone, Debug)]
struct Node {
    name: String,
    rank: usize,
    begin_ns: u64,
    end_ns: u64,
    /// (src, dst, order) for recv nodes, matched FIFO against sends.
    recv_key: Option<(usize, usize, usize)>,
    send_key: Option<(usize, usize, usize)>,
}

/// Build the per-rank dependency DAG from `send`/`recv` spans plus
/// synthetic `compute` nodes for the gaps between them, and run the
/// longest-path DP. Messages are matched FIFO per ordered (src, dst)
/// pair — the transport delivers in order, so the k-th receive from a
/// peer pairs with its k-th send.
pub fn critical_path(trace: &Trace) -> Option<CriticalPath> {
    let nranks = trace.nranks();
    if nranks == 0 {
        return None;
    }
    let t0 = trace.spans.iter().map(|s| s.begin_ns).min()?;
    // Comm spans per rank, in time order.
    let mut per_rank: Vec<Vec<&SpanRec>> = vec![Vec::new(); nranks];
    for s in &trace.spans {
        if (s.name == "send" || s.name == "recv") && s.rank >= 0 {
            let dst = s.arg0;
            if (0..nranks as i64).contains(&dst) {
                per_rank[s.rank as usize].push(s);
            }
        }
    }
    let mut nodes: Vec<Node> = Vec::new();
    let mut pair_seq: BTreeMap<(usize, usize, &str), usize> = BTreeMap::new();
    for (r, spans) in per_rank.iter_mut().enumerate() {
        spans.sort_by_key(|s| (s.begin_ns, s.end_ns));
        let mut cursor = t0;
        for s in spans.iter() {
            let peer = s.arg0 as usize;
            if s.begin_ns > cursor {
                nodes.push(Node {
                    name: "compute".to_string(),
                    rank: r,
                    begin_ns: cursor,
                    end_ns: s.begin_ns,
                    recv_key: None,
                    send_key: None,
                });
            }
            let (pair, kind) = if s.name == "send" {
                ((r, peer), "send")
            } else {
                ((peer, r), "recv")
            };
            let seq = pair_seq.entry((pair.0, pair.1, kind)).or_default();
            let key = (pair.0, pair.1, *seq);
            *seq += 1;
            nodes.push(Node {
                name: s.name.clone(),
                rank: r,
                begin_ns: s.begin_ns,
                end_ns: s.end_ns,
                recv_key: (s.name == "recv").then_some(key),
                send_key: (s.name == "send").then_some(key),
            });
            cursor = cursor.max(s.end_ns);
        }
    }
    if nodes.is_empty() {
        return None;
    }
    // Topological order: a node's predecessors (previous node on the
    // same rank; matched send for a recv) always end no later than it.
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_by_key(|&i| (nodes[i].end_ns, nodes[i].begin_ns));
    let mut send_done: BTreeMap<(usize, usize, usize), (f64, usize)> = BTreeMap::new();
    let mut rank_last: Vec<Option<usize>> = vec![None; nranks];
    let mut completion = vec![0.0f64; nodes.len()];
    let mut pred = vec![usize::MAX; nodes.len()];
    for &i in &order {
        let n = &nodes[i];
        let mut ready = 0.0f64;
        let mut from = usize::MAX;
        if let Some(j) = rank_last[n.rank] {
            ready = completion[j];
            from = j;
        }
        if let Some(key) = n.recv_key {
            if let Some(&(done, j)) = send_done.get(&key) {
                if done > ready {
                    ready = done;
                    from = j;
                }
            }
        }
        let dur = (n.end_ns.saturating_sub(n.begin_ns)) as f64 * 1e-9;
        completion[i] = ready + dur;
        pred[i] = from;
        if let Some(key) = n.send_key {
            send_done.insert(key, (completion[i], i));
        }
        rank_last[n.rank] = Some(i);
    }
    let (mut cur, &total) = completion
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))?;
    let mut by_name: BTreeMap<String, f64> = BTreeMap::new();
    loop {
        let n = &nodes[cur];
        let dur = (n.end_ns.saturating_sub(n.begin_ns)) as f64 * 1e-9;
        *by_name.entry(n.name.clone()).or_default() += dur;
        if pred[cur] == usize::MAX {
            break;
        }
        cur = pred[cur];
    }
    let mut by_name: Vec<(String, f64)> = by_name.into_iter().collect();
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    Some(CriticalPath {
        total_s: total,
        wall_s: trace.wall_s(),
        by_name,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::too_many_arguments)]
    fn mk(
        name: &str,
        rank: i32,
        tid: u32,
        b: u64,
        e: u64,
        depth: u32,
        a0: i64,
        a1: i64,
    ) -> SpanRec {
        SpanRec {
            name: name.to_string(),
            rank,
            tid,
            begin_ns: b,
            end_ns: e,
            depth,
            arg0: a0,
            arg1: a1,
        }
    }

    #[test]
    fn self_time_excludes_direct_children() {
        let t = Trace {
            spans: vec![
                mk("step", -1, 0, 0, 1000, 0, -1, -1),
                mk("particle", -1, 0, 100, 600, 1, -1, -1),
                mk("maxwell", -1, 0, 600, 900, 1, -1, -1),
            ],
            dropped: 0,
        };
        let top = top_spans(&t, 10);
        let step = top.iter().find(|a| a.name == "step").unwrap();
        assert!((step.total_s - 1000e-9).abs() < 1e-15);
        assert!(
            (step.self_s - 200e-9).abs() < 1e-15,
            "self = {}",
            step.self_s
        );
    }

    #[test]
    fn comm_matrix_sums_send_bytes() {
        let t = Trace {
            spans: vec![
                mk("send", 0, 1, 0, 10, 0, 1, 100),
                mk("send", 0, 1, 20, 30, 0, 1, 50),
                mk("send", 1, 2, 5, 15, 0, 0, 7),
                mk("recv", 1, 2, 0, 20, 0, 0, -1),
            ],
            dropped: 0,
        };
        let m = comm_matrix(&t, 2);
        assert_eq!(m[0][1], 150);
        assert_eq!(m[1][0], 7);
        assert_eq!(m[0][0], 0);
    }

    #[test]
    fn distribution_uses_nearest_rank_quantiles() {
        let mut spans: Vec<SpanRec> = (1..=200)
            .map(|b| mk("send", 0, 1, 0, 10, 0, 1, b))
            .collect();
        spans.push(mk("recv", 0, 1, 0, 10, 0, 1, -1));
        let t = Trace { spans, dropped: 0 };
        let d = distribution(&t, "send", |s| s.arg1 as u64).unwrap();
        assert_eq!(
            d,
            Distribution {
                count: 200,
                p50: 100,
                p99: 198,
                max: 200,
            }
        );
        assert!(distribution(&t, "box", |s| s.arg1 as u64).is_none());
    }

    #[test]
    fn imbalance_is_max_over_mean() {
        let t = Trace {
            spans: vec![
                mk("fill", 0, 1, 0, 300, 0, -1, -1),
                mk("fill", 1, 2, 0, 100, 0, -1, -1),
            ],
            dropped: 0,
        };
        let r = imbalance(&t).unwrap();
        assert!((r - 1.5).abs() < 1e-12, "imbalance = {r}");
    }

    #[test]
    fn critical_path_crosses_matched_messages() {
        // rank 0: compute 100, send 10 -> rank 1 waits then recvs.
        // Chain: compute(100) + send(10) + recv(20) = 130ns, even though
        // rank 1's own timeline is only 60ns busy.
        let t = Trace {
            spans: vec![
                mk("compute_marker", -1, 0, 0, 1, 0, -1, -1), // pins t0 = 0
                mk("send", 0, 1, 100, 110, 0, 1, 64),
                mk("recv", 1, 2, 40, 120, 0, 0, 64),
            ],
            dropped: 0,
        };
        let cp = critical_path(&t).unwrap();
        // compute gap on rank 0 [0,100) + send 10ns + recv 80ns: the
        // recv's dependency chain runs through the send.
        let names: Vec<&str> = cp.by_name.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"recv"));
        assert!(names.contains(&"send"));
        assert!(names.contains(&"compute"));
        assert!(cp.total_s >= 190e-9 - 1e-15, "total = {}", cp.total_s);
    }

    #[test]
    fn recv_wait_attributes_to_the_waiting_rank() {
        let t = Trace {
            spans: vec![
                mk("recv_wait", 1, 2, 0, 500, 1, 0, -1),
                mk("recv_wait", 1, 2, 600, 700, 1, 0, -1),
            ],
            dropped: 0,
        };
        let w = recv_wait_seconds(&t, 2);
        assert!((w[1] - 600e-9).abs() < 1e-15);
        assert_eq!(w[0], 0.0);
    }
}
