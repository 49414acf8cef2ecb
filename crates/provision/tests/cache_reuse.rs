//! A repeated shared-bus search is answered from the solution cache.
//!
//! Every shared-bus chain solve is cold and retained, so a second,
//! identical search in the same process solves nothing: it finds every
//! point in the cache and reproduces the first frontier bit for bit. This
//! file holds a single test so that no other search shares the
//! process-wide cache counters while it runs.

use rsin_provision::{search, EvalQuality, Family, SearchSpec};

#[test]
fn repeated_p1024_sbus_search_hits_the_cache_every_time() {
    let mut spec = SearchSpec::new(1024, 0.3, 0.1, 1.0).expect("valid spec");
    spec.families = vec![Family::Sbus];
    spec.max_resources_per_port = 64;
    spec.quality = EvalQuality::quick(1);
    spec.confirm = None;

    let first = search(&spec).expect("search runs");
    let second = search(&spec).expect("search runs");

    assert!(!first.frontier.is_empty());
    assert_eq!(first.frontier.len(), second.frontier.len());
    for (a, b) in first.frontier.iter().zip(&second.frontier) {
        assert_eq!(a.topo, b.topo);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(a.delay, b.delay);
        assert_eq!(
            a.delay.normalized_delay.to_bits(),
            b.delay.normalized_delay.to_bits()
        );
    }
    assert!(first.cache_misses > 0, "the first search solves cold");
    assert_eq!(second.cache_misses, 0, "every point is retained");
    assert_eq!(second.cache_hits, first.cache_hits + first.cache_misses);
}
