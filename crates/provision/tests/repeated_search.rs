//! A repeated shared-bus search reproduces its frontier bit for bit.
//!
//! Every shared-bus chain solve is cold and depends only on its
//! parameters, so a second, identical search in the same process gives
//! the first frontier back exactly: the same topologies, costs and delays.

use rsin_provision::{search, EvalQuality, Family, SearchSpec};

#[test]
fn repeated_p1024_sbus_search_reproduces_the_frontier() {
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
}
