//! The seed decides the inputs, and nothing else does.

use saps_perfbench::adapter::Inputs;
use saps_perfbench::workloads::{self, Fabric};

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let spec = workloads::by_name("serve-swap").unwrap();
    let a = Inputs::generate(&spec, 7).digest();
    assert_eq!(a, Inputs::generate(&spec, 7).digest());
    assert_ne!(a, Inputs::generate(&spec, 8).digest());
}

#[test]
fn the_lineup_pair_shares_one_input_generator() {
    let mem = workloads::by_name("lineup8-mem").unwrap();
    let wire = workloads::by_name("lineup8-wire").unwrap();
    assert_eq!((mem.fabric, wire.fabric), (Fabric::Memory, Fabric::Wire));
    // Everything but the name, the reason and the fabric is one value.
    let mut relabelled = wire.clone();
    relabelled.name = mem.name;
    relabelled.why = mem.why;
    relabelled.fabric = mem.fabric;
    assert_eq!(relabelled, mem);
    assert_eq!(mem.legs.len(), 8);
    assert_eq!(
        Inputs::generate(&mem, 3).digest(),
        Inputs::generate(&wire, 3).digest()
    );
}

#[test]
fn workload_names_are_unique_and_well_formed() {
    let all = workloads::all();
    assert_eq!(all.len(), 6);
    for (i, w) in all.iter().enumerate() {
        assert!(
            all[..i].iter().all(|o| o.name != w.name),
            "{} twice",
            w.name
        );
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(
            (w.shares.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "{}",
            w.name
        );
        assert!(w.churn_ranks.end <= w.churn_workers && w.churn_workers <= w.workers);
        assert!(w.focus < w.legs.len());
    }
}
