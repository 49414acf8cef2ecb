//! Property-based tests of the simulation kernel.

use rsin_des::stats::{Histogram, TimeWeighted, Welford};
use rsin_des::{Calendar, SimRng, SimTime};
use rsin_minicheck::check;

/// Random interleavings of schedule/cancel always deliver the
/// non-cancelled events exactly once, in time order.
#[test]
fn calendar_with_cancellations() {
    check(256, |g| {
        let n = g.usize_in(1, 60);
        let ops: Vec<(f64, bool)> = (0..n).map(|_| (g.f64_in(0.0, 1e3), g.bool())).collect();
        let mut cal = Calendar::new();
        let mut expected = Vec::new();
        let mut handles = Vec::new();
        for (idx, &(t, cancel)) in ops.iter().enumerate() {
            let h = cal.schedule(SimTime::new(t), idx);
            handles.push((h, t, cancel));
        }
        for &(h, t, cancel) in &handles {
            if cancel {
                assert!(cal.cancel(h));
            } else {
                expected.push(t);
            }
        }
        expected.sort_by(f64::total_cmp);
        let mut delivered = Vec::new();
        while let Some((t, _)) = cal.pop() {
            delivered.push(t.as_f64());
        }
        assert_eq!(delivered.len(), expected.len());
        for (d, e) in delivered.iter().zip(&expected) {
            assert!((d - e).abs() < 1e-12);
        }
        assert!(cal.is_empty());
    });
}

/// The calendar length is exact under mixed operations.
#[test]
fn calendar_len_is_exact() {
    check(256, |g| {
        let n = g.usize_in(1, 40);
        let cancels = g.usize_in(0, 40);
        let mut cal = Calendar::new();
        let handles: Vec<_> = (0..n)
            .map(|i| cal.schedule(SimTime::new(i as f64), i))
            .collect();
        let mut live = n;
        for h in handles.iter().take(cancels.min(n)) {
            if cal.cancel(*h) {
                live -= 1;
            }
        }
        assert_eq!(cal.len(), live);
    });
}

/// The indexed calendar agrees with a sorted-`Vec` reference model through
/// arbitrary interleavings of schedule, cancel, pop, peek, and clear —
/// including same-instant FIFO ties and cancels aimed at handles whose
/// events were already delivered, cancelled, or wiped by `clear`.
#[test]
fn calendar_matches_reference_model() {
    // The reference model: a flat list of live events ordered on demand by
    // (time, insertion number), which is the documented tie-breaking rule.
    struct Model {
        live: Vec<(f64, u64, usize)>, // (time, seq, payload)
        next_seq: u64,
    }
    impl Model {
        fn min_index(&self) -> Option<usize> {
            (0..self.live.len()).min_by(|&a, &b| {
                let (ta, sa, _) = self.live[a];
                let (tb, sb, _) = self.live[b];
                ta.total_cmp(&tb).then(sa.cmp(&sb))
            })
        }
    }

    check(256, |g| {
        let mut cal = Calendar::new();
        let mut model = Model {
            live: Vec::new(),
            next_seq: 0,
        };
        // Every handle ever issued, with its model seq and liveness.
        let mut issued: Vec<(rsin_des::EventHandle, u64, bool)> = Vec::new();
        let mut now = 0.0f64;
        let mut next_payload = 0usize;

        let steps = g.usize_in(20, 200);
        for _ in 0..steps {
            match g.usize_in(0, 10) {
                // Schedule at a fresh future offset (sometimes exactly now).
                0..=3 => {
                    let t = if g.bool() {
                        now + g.f64_in(0.0, 100.0)
                    } else {
                        now // same-instant scheduling must honor FIFO order
                    };
                    let h = cal.schedule(SimTime::new(t), next_payload);
                    model.live.push((t, model.next_seq, next_payload));
                    issued.push((h, model.next_seq, true));
                    model.next_seq += 1;
                    next_payload += 1;
                }
                // Schedule a deliberate tie with a live event's time.
                4 => {
                    if let Some(&(t, _, _)) = model.live.first() {
                        let h = cal.schedule(SimTime::new(t), next_payload);
                        model.live.push((t, model.next_seq, next_payload));
                        issued.push((h, model.next_seq, true));
                        model.next_seq += 1;
                        next_payload += 1;
                    }
                }
                // Cancel a random handle from the full history: live ones
                // must cancel exactly once; delivered/cancelled/cleared ones
                // must report false.
                5..=6 => {
                    if !issued.is_empty() {
                        let i = g.usize_in(0, issued.len());
                        let (h, seq, alive) = issued[i];
                        assert_eq!(cal.cancel(h), alive, "cancel of seq {seq}");
                        if alive {
                            issued[i].2 = false;
                            model.live.retain(|&(_, s, _)| s != seq);
                        }
                        // A second cancel through the same handle is a no-op.
                        assert!(!cal.cancel(h));
                        issued[i].2 = false;
                    }
                }
                // Pop: time, payload, and clock advance must all match.
                7..=8 => match model.min_index() {
                    Some(i) => {
                        let (t, seq, payload) = model.live.swap_remove(i);
                        let (pt, pp) = cal.pop().expect("model says nonempty");
                        assert_eq!(pt, SimTime::new(t));
                        assert_eq!(pp, payload);
                        now = t;
                        if let Some(slot) = issued.iter_mut().find(|(_, s, _)| *s == seq) {
                            slot.2 = false;
                        }
                    }
                    None => assert!(cal.pop().is_none()),
                },
                // Peek must agree without disturbing anything.
                9 => {
                    let expect = model.min_index().map(|i| SimTime::new(model.live[i].0));
                    assert_eq!(cal.peek_time(), expect);
                }
                // Clear: everything dies, including outstanding handles.
                _ => {
                    cal.clear();
                    model.live.clear();
                    for slot in &mut issued {
                        slot.2 = false;
                    }
                    now = 0.0;
                }
            }
            assert_eq!(cal.len(), model.live.len());
            assert_eq!(cal.is_empty(), model.live.is_empty());
        }

        // Drain: the full remaining order must match the reference.
        while let Some(i) = model.min_index() {
            let (t, _, payload) = model.live.swap_remove(i);
            let (pt, pp) = cal.pop().expect("drain");
            assert_eq!(pt, SimTime::new(t));
            assert_eq!(pp, payload);
        }
        assert!(cal.pop().is_none());
        assert!(cal.is_empty());
    });
}

/// Histogram mass balance: bin counts plus overflow equal the total.
#[test]
fn histogram_mass_balance() {
    check(256, |g| {
        let xs = g.vec_f64(0.0, 20.0, 1, 200);
        let mut h = Histogram::new(8, 10.0);
        for &x in &xs {
            h.record(x);
        }
        let binned: u64 = (0..h.num_bins()).map(|i| h.bin_count(i)).sum();
        assert_eq!(binned + h.overflow(), xs.len() as u64);
        assert_eq!(h.count(), xs.len() as u64);
    });
}

/// Time-weighted average of any step signal lies within its range.
#[test]
fn time_average_within_range() {
    check(256, |g| {
        let n = g.usize_in(1, 50);
        let steps: Vec<(f64, f64)> = (0..n)
            .map(|_| (g.f64_in(0.01, 10.0), g.f64_in(0.0, 50.0)))
            .collect();
        let mut tw = TimeWeighted::new(SimTime::ZERO, steps[0].1);
        let mut t = 0.0;
        let mut lo = steps[0].1;
        let mut hi = steps[0].1;
        for &(dt, level) in &steps {
            t += dt;
            tw.set(SimTime::new(t), level);
            lo = lo.min(level);
            hi = hi.max(level);
        }
        let avg = tw.average(SimTime::new(t + 1.0));
        // The final level extends to the query time, so it bounds too.
        assert!(
            avg >= lo - 1e-9 && avg <= hi + 1e-9,
            "avg {avg} outside [{lo}, {hi}]"
        );
    });
}

/// Welford statistics are permutation-invariant.
#[test]
fn welford_permutation_invariant() {
    check(256, |g| {
        let xs = g.vec_f64(-1e4, 1e4, 2, 100);
        let seed = g.u64();
        let mut a = Welford::new();
        for &x in &xs {
            a.push(x);
        }
        let mut shuffled = xs.clone();
        let mut rng = SimRng::new(seed);
        rng.shuffle(&mut shuffled);
        let mut b = Welford::new();
        for &x in &shuffled {
            b.push(x);
        }
        assert!((a.mean() - b.mean()).abs() < 1e-7 * (1.0 + a.mean().abs()));
        assert!(
            (a.sample_variance() - b.sample_variance()).abs() < 1e-6 * (1.0 + a.sample_variance())
        );
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
    });
}

/// Per-shard Welford/Histogram accumulators over an interleaved
/// cross-shard sample stream merge to exactly the single-stream result,
/// whatever the shard count, home mapping, or merge order — the loadgen
/// invariant the sharded broker's scaling measurements lean on: each
/// requester's delays land on its home shard's accumulator (`worker %
/// shards`), and shards are merged in arbitrary order at shutdown.
#[test]
fn sharded_stat_merges_equal_single_stream() {
    check(128, |g| {
        let shards = g.usize_in(1, 5);
        let n = g.usize_in(0, 200);
        let bins = g.usize_in(1, 8);
        let upper = g.f64_in(1.0, 50.0);
        let samples: Vec<(usize, f64)> = (0..n)
            .map(|_| (g.usize_in(0, 15), g.f64_in(0.0, 60.0)))
            .collect();

        let mut single_w = Welford::new();
        let mut single_h = Histogram::new(bins, upper);
        let mut shard_w = vec![Welford::new(); shards];
        let mut shard_h: Vec<Histogram> =
            (0..shards).map(|_| Histogram::new(bins, upper)).collect();
        for &(worker, x) in &samples {
            single_w.push(x);
            single_h.record(x);
            let home = worker % shards;
            shard_w[home].push(x);
            shard_h[home].record(x);
        }

        // Merge starting at a random shard: order independence is part of
        // the claim (worker threads retire in unpredictable order).
        let start = g.usize_in(0, shards);
        let mut merged_w = Welford::new();
        let mut merged_h = Histogram::new(bins, upper);
        for k in 0..shards {
            let s = (start + k) % shards;
            merged_w.merge(&shard_w[s]);
            merged_h.merge(&shard_h[s]);
        }

        assert_eq!(merged_w.count(), single_w.count());
        if single_w.count() > 0 {
            assert!(
                (merged_w.mean() - single_w.mean()).abs() < 1e-9 * (1.0 + single_w.mean().abs()),
                "merged mean diverged"
            );
            assert_eq!(merged_w.min(), single_w.min());
            assert_eq!(merged_w.max(), single_w.max());
        }
        if single_w.count() > 1 {
            assert!(
                (merged_w.sample_variance() - single_w.sample_variance()).abs()
                    < 1e-8 * (1.0 + single_w.sample_variance()),
                "merged variance diverged"
            );
        }
        assert_eq!(merged_h.count(), single_h.count());
        assert_eq!(merged_h.overflow(), single_h.overflow());
        for i in 0..bins {
            assert_eq!(merged_h.bin_count(i), single_h.bin_count(i));
        }
    });
}
