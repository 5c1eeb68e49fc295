//! Property-based tests over the core invariants (proptest):
//!
//! * XML round-trip: `decode(encode(p)) == p` for arbitrary valid platforms;
//! * validation: randomly generated valid trees pass, mutations fail;
//! * scheduling: every schedule is complete, respects dependencies, and its
//!   makespan is bounded below by work/aggregate-rate and critical path;
//! * coherence: reads always find a valid copy, writers end up exclusive;
//! * DGEMM implementation variants agree with the naive reference.

use hetero_rt::prelude::*;
use pdl_core::prelude::*;
use proptest::prelude::*;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn arb_id() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9]{0,6}".prop_map(|s| s)
}

fn arb_property() -> impl Strategy<Value = Property> {
    (
        "[A-Z][A-Z_]{0,10}",
        // XML decode trims surrounding whitespace from values, so the model
        // canonical form is trimmed text.
        "([a-zA-Z0-9._-][a-zA-Z0-9 ._-]{0,10}[a-zA-Z0-9._-])?",
        any::<bool>(),
    )
        .prop_map(|(name, value, fixed)| {
            if fixed && value.trim().is_empty() {
                // Fixed properties require non-empty values.
                Property::fixed(name, "x")
            } else {
                Property {
                    name,
                    value: PropertyValue::text(value),
                    fixed,
                    subschema: None,
                }
            }
        })
}

/// A random valid platform: 1-2 masters, each with up to 3 hybrids of up to
/// 3 workers plus direct workers, unique ids, random properties/groups.
fn arb_platform() -> impl Strategy<Value = Platform> {
    let pu_payload = (proptest::collection::vec(arb_property(), 0..4), 1u32..4);
    (
        1usize..3,                                       // masters
        proptest::collection::vec(0usize..4, 1..3),      // hybrids per master
        proptest::collection::vec(0usize..3, 1..6),      // workers per node
        proptest::collection::vec(pu_payload, 1..20),    // payload pool
        proptest::collection::vec(any::<bool>(), 1..20), // group flags
    )
        .prop_map(|(masters, hybrids, workers, payloads, groups)| {
            let mut b = Platform::builder("prop");
            let mut uid = 0usize;
            let mut payload_i = 0usize;
            let mut group_i = 0usize;
            let mut all_ids: Vec<String> = Vec::new();
            let mut next_payload = |b: &mut PlatformBuilder, h: PuHandle| {
                let (props, quantity) = payloads[payload_i % payloads.len()].clone();
                payload_i += 1;
                for p in props {
                    b.prop(h, p);
                }
                b.quantity(h, quantity);
            };
            for m in 0..masters {
                let mid = format!("m{m}");
                let mh = b.master(mid.clone());
                all_ids.push(mid);
                next_payload(&mut b, mh);
                let n_hybrids = hybrids[m % hybrids.len()];
                for hx in 0..n_hybrids {
                    uid += 1;
                    let hid = format!("h{uid}");
                    let hh = b.hybrid(mh, hid.clone()).unwrap();
                    all_ids.push(hid);
                    next_payload(&mut b, hh);
                    let n_w = workers[(m + hx) % workers.len()];
                    for _ in 0..n_w {
                        uid += 1;
                        let wid = format!("w{uid}");
                        let wh = b.worker(hh, wid.clone()).unwrap();
                        all_ids.push(wid);
                        next_payload(&mut b, wh);
                        if groups[group_i % groups.len()] {
                            b.group(wh, "g1");
                        }
                        group_i += 1;
                    }
                }
                // One direct worker per master keeps leaves plentiful.
                uid += 1;
                let wid = format!("w{uid}");
                let wh = b.worker(mh, wid.clone()).unwrap();
                all_ids.push(wid);
                next_payload(&mut b, wh);
            }
            // Interconnects between some consecutive id pairs.
            for pair in all_ids.windows(2).step_by(2) {
                b.interconnect(Interconnect::new("link", pair[0].clone(), pair[1].clone()));
            }
            b.build().expect("generator produces valid platforms")
        })
}

// ---------------------------------------------------------------------------
// XML round-trip
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xml_round_trip_is_identity(p in arb_platform()) {
        let xml = pdl_xml::to_xml(&p);
        let back = pdl_xml::from_xml(&xml)
            .unwrap_or_else(|e| panic!("round-trip parse failed: {e}\n{xml}"));
        prop_assert_eq!(back, p);
    }

    #[test]
    fn generated_platforms_validate(p in arb_platform()) {
        prop_assert!(p.issues().is_empty(), "{:?}", p.issues());
    }

    #[test]
    fn text_escaping_survives_attributes_and_text(
        value in "[ -~]{0,24}" // any printable ASCII incl. <>&'"
    ) {
        let mut b = Platform::builder("esc");
        let m = b.master("0");
        // Unfixed so empty values stay legal.
        b.prop(m, Property::unfixed("PAYLOAD", value.clone()));
        let p = b.build().unwrap();
        let xml = pdl_xml::to_xml(&p);
        let back = pdl_xml::from_xml(&xml).unwrap();
        let (_, master) = back.pu_by_id("0").unwrap();
        // XML decode normalizes surrounding whitespace; inner content is
        // preserved exactly (escaping included).
        prop_assert_eq!(master.descriptor.value("PAYLOAD").unwrap(), value.trim());
    }
}

// ---------------------------------------------------------------------------
// Validation catches mutations
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn duplicate_ids_always_caught(id in arb_id()) {
        let mut b = Platform::builder("dup");
        let m = b.master(id.clone());
        b.worker(m, id.clone()).unwrap();
        let p = b.build_unchecked();
        prop_assert!(p
            .issues()
            .iter()
            .any(|i| matches!(i, ValidationIssue::DuplicatePuId(_))));
    }

    #[test]
    fn zero_quantity_always_caught(p in arb_platform()) {
        // Take the platform, rebuild with one PU's quantity forced to 0.
        let mut b = Platform::builder("z");
        let m = b.master("m");
        b.quantity(m, 0);
        let bad = b.build_unchecked();
        prop_assert!(!bad.issues().is_empty());
        // And the original is unaffected.
        prop_assert!(p.issues().is_empty());
    }
}

// ---------------------------------------------------------------------------
// Scheduling invariants
// ---------------------------------------------------------------------------

/// Random task graph: chain/parallel mix over a few data handles.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    (proptest::collection::vec(
        (0usize..4, 1u64..100, any::<bool>()),
        1..40,
    ),)
        .prop_map(|(tasks,)| {
            let mut g = TaskGraph::new();
            let c = g.add_codelet(
                Codelet::new("k")
                    .with_variant(Variant::new("x86"))
                    .with_variant(Variant::new("gpu").requiring("Cuda")),
            );
            let handles: Vec<_> = (0..4)
                .map(|i| g.register_data(format!("d{i}"), 1e6))
                .collect();
            for (i, (h, mflops, writes)) in tasks.into_iter().enumerate() {
                let mode = if writes {
                    AccessMode::ReadWrite
                } else {
                    AccessMode::Read
                };
                g.submit(
                    c,
                    format!("t{i}"),
                    mflops as f64 * 1e6,
                    vec![DataAccess {
                        handle: handles[h],
                        mode,
                    }],
                    None,
                )
                .unwrap();
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn schedules_are_complete_and_dependency_safe(
        graph in arb_graph(),
        policy_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        let machine = simhw::machine::SimMachine::from_platform(
            &pdl_discover::synthetic::xeon_2gpu_testbed(),
        );
        let mut policy: Box<dyn Scheduler> = match policy_idx {
            0 => Box::new(EagerScheduler),
            1 => Box::new(HeftScheduler),
            2 => Box::new(RandomScheduler::new(seed)),
            _ => Box::new(RoundRobinScheduler::default()),
        };
        let report = simulate(&graph, &machine, policy.as_mut(), &SimOptions::default()).unwrap();

        // Completeness: every task exactly once.
        prop_assert_eq!(report.assignments.len(), graph.len());
        let mut seen: Vec<usize> = report.assignments.iter().map(|(t, _)| t.0).collect();
        seen.sort_unstable();
        seen.dedup();
        prop_assert_eq!(seen.len(), graph.len());

        // Lower bounds: makespan ≥ total work / aggregate rate, and
        // ≥ critical path / fastest device.
        let total_rate = machine.total_flops_dp();
        let fastest = machine.devices.iter().map(|d| d.flops_dp).fold(0.0, f64::max);
        let lb1 = graph.total_flops() / total_rate;
        let lb2 = graph.critical_path_flops() / fastest;
        prop_assert!(report.makespan.seconds() >= lb1 - 1e-9,
            "makespan {} < work bound {}", report.makespan.seconds(), lb1);
        prop_assert!(report.makespan.seconds() >= lb2 - 1e-9,
            "makespan {} < critical-path bound {}", report.makespan.seconds(), lb2);
    }

    #[test]
    fn heft_never_loses_to_random_by_much(graph in arb_graph(), seed in any::<u64>()) {
        let machine = simhw::machine::SimMachine::from_platform(
            &pdl_discover::synthetic::xeon_2gpu_testbed(),
        );
        let heft = simulate(&graph, &machine, &mut HeftScheduler, &SimOptions::default())
            .unwrap()
            .makespan
            .seconds();
        let random = simulate(
            &graph,
            &machine,
            &mut RandomScheduler::new(seed),
            &SimOptions::default(),
        )
        .unwrap()
        .makespan
        .seconds();
        // HEFT is greedy, not optimal, but should never be drastically worse.
        prop_assert!(heft <= random * 1.5 + 1e-9, "heft {heft} vs random {random}");
    }
}

// ---------------------------------------------------------------------------
// Coherence invariants
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coherence_never_loses_data(ops in proptest::collection::vec(
        (0usize..8, 0u8..3), 1..60
    )) {
        use hetero_rt::data::{DataRegistry, HOST};
        let machine = simhw::machine::SimMachine::from_platform(
            &pdl_discover::synthetic::xeon_2gpu_testbed(),
        );
        let mut reg = DataRegistry::new();
        let h = reg.register("d", 1e6);
        for (dev, mode) in ops {
            let device = machine.devices[dev % machine.len()].id;
            let mode = match mode {
                0 => AccessMode::Read,
                1 => AccessMode::Write,
                _ => AccessMode::ReadWrite,
            };
            reg.acquire(&machine, h, device, mode);
            // Invariant: at least one valid copy exists, and after a write
            // the writer holds one.
            prop_assert!(!reg.valid_on(h).is_empty());
            if mode.writes() {
                prop_assert!(reg.is_valid_on(h, device));
                prop_assert_eq!(reg.valid_on(h).len(), 1);
            }
        }
        // Data can always be recovered to the host.
        reg.flush_to_host(&machine, h);
        prop_assert!(reg.is_valid_on(h, HOST));
    }
}

// ---------------------------------------------------------------------------
// Kernel variants agree
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn dgemm_variants_agree(
        n in 1usize..24,
        block in 1usize..9,
        seed in any::<u64>(),
    ) {
        use kernels::dgemm::*;
        let f = |i: usize, j: usize, s: u64| {
            (((i as u64 * 31 + j as u64 * 17) ^ s) % 13) as f64 - 6.0
        };
        let a = Matrix::from_fn(n, |i, j| f(i, j, seed));
        let b = Matrix::from_fn(n, |i, j| f(j, i, seed.rotate_left(7)));

        let mut reference = Matrix::zeros(n);
        dgemm_naive(&a, &b, &mut reference);

        let mut blocked = Matrix::zeros(n);
        dgemm_blocked(&a, &b, &mut blocked, block);
        prop_assert!(blocked.max_abs_diff(&reference) < 1e-9);

        let mut transposed = Matrix::zeros(n);
        dgemm_transposed(&a, &b, &mut transposed);
        prop_assert!(transposed.max_abs_diff(&reference) < 1e-9);

        // Tiled coverage with an arbitrary tile size.
        let tile = block.min(n).max(1);
        let tiles = n.div_ceil(tile);
        let mut tiled = Matrix::zeros(n);
        for ti in 0..tiles {
            for tj in 0..tiles {
                for tk in 0..tiles {
                    dgemm_tile(&a, &b, &mut tiled, tile, ti, tj, tk);
                }
            }
        }
        prop_assert!(tiled.max_abs_diff(&reference) < 1e-9);
    }

    #[test]
    fn vecadd_block_decomposition_agrees(
        n in 0usize..2000,
        chunks in 1usize..17,
    ) {
        use kernels::vecadd::*;
        let mut full: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64).collect();
        let mut chunked = full.clone();
        vecadd(&mut full, &b);
        for (lo, hi) in block_ranges(n, chunks) {
            vecadd_chunk(&mut chunked, &b, lo, hi);
        }
        prop_assert_eq!(full, chunked);
    }
}
