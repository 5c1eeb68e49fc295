//! Registry service smoke test (CI gate).
//!
//! Publishes the builtin platform catalog into a registry, then checks the
//! whole registry chain end to end:
//!
//! 1. publishing is idempotent and canonical (re-publishing the catalog
//!    creates nothing; presentation differences share content addresses);
//! 2. resolve / select / diff / compatibility answer correctly against a
//!    snapshot, and snapshots are isolated from later publishes;
//! 3. layer composition is order-insensitive and revisions version-bump
//!    the way the compatibility rules say;
//! 4. a burst of concurrent readers over a mutating registry observes
//!    only monotonic epochs and consistent catalogs.
//!
//! Exits non-zero on any failure. Usage:
//! `cargo run -p bench --bin registry_smoke [--out DIR]`
//! With `--out`, writes `BENCH_registry_smoke.json` into DIR (CI uploads
//! it as an artifact).

use bench::smoke::Smoke;
use hetero_trace::json::Json;
use pdl_core::property::Property;
use pdl_discover::catalog::Catalog;
use pdl_query::capability::{Requirement, RequirementSet};
use pdl_registry::{compose, Compatibility, Layer, LayerKind, Registry, Target, VersionReq};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() -> ExitCode {
    let Some(mut smoke) = Smoke::from_args("registry_smoke") else {
        return ExitCode::FAILURE;
    };

    let catalog = Catalog::with_builtin_platforms();
    let reg = Arc::new(Registry::new());

    // 1. Publish + idempotence.
    let first = catalog.publish_into(&reg);
    smoke.check(
        first.iter().all(|o| o.created),
        "first publish creates every series",
    );
    let again = catalog.publish_into(&reg);
    smoke.check(
        again.iter().all(|o| !o.created),
        "re-publishing the catalog is a no-op",
    );
    let seeded = reg.snapshot();
    smoke.check(
        seeded.len() == catalog.len() && seeded.total_releases() == catalog.len(),
        "snapshot holds one release per catalog entry",
    );

    // 2. Resolve / select / diff on the snapshot.
    let resolved = seeded.resolve_str("cell-be", "^1");
    smoke.check(
        resolved
            .as_ref()
            .map(|r| r.pin().starts_with("cell-be@1.0.0"))
            == Ok(true),
        "cell-be resolves at 1.0.0",
    );
    let gpus = RequirementSet::new().with(Requirement::Architecture("gpu".into()));
    let hits = seeded.select(&gpus);
    smoke.check(
        hits.iter().any(|r| r.name == "xeon-x5550-gtx480-gtx285"),
        "capability select finds the GPU testbed",
    );
    smoke.check(
        seeded
            .diff("cell-be", &VersionReq::Latest, &VersionReq::Latest)
            .map(|d| d.is_empty())
            == Ok(true),
        "self-diff is empty",
    );

    // 3. Layered revision: order-insensitive composition, minor bump.
    let base = seeded
        .resolve_str("xeon-x5550-8core", "latest")
        .expect("builtin present");
    let layers = vec![
        Layer::new(LayerKind::Environment, "starpu")
            .set(Target::All, Property::fixed("RUNTIME_SYSTEM", "StarPU")),
        Layer::new(LayerKind::Microarchitecture, "tuned")
            .set(Target::All, Property::fixed("BOOST", "on")),
    ];
    let fwd = compose(base.platform.platform(), &layers);
    let mut rev_layers = layers.clone();
    rev_layers.reverse();
    let bwd = compose(base.platform.platform(), &rev_layers);
    smoke.check(
        pdl_registry::content_hash(&fwd) == pdl_registry::content_hash(&bwd),
        "layer composition order does not change the content address",
    );
    let out = reg.publish(&fwd);
    smoke.check(
        out.created && out.compat == Some(Compatibility::Minor),
        "additive layered revision bumps minor",
    );
    smoke.check(
        seeded.total_releases() == catalog.len(),
        "pinned snapshot is isolated from the publish",
    );
    smoke.check(
        reg.snapshot()
            .resolve_str("xeon-x5550-8core", "latest")
            .map(|r| r.version.to_string())
            == Ok("1.1.0".to_string()),
        "new snapshot resolves the bumped version",
    );

    // 4. Concurrent readers against a mutating registry.
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let reg = Arc::clone(&reg);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_epoch = 0;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = reg.snapshot();
                    if snap.epoch() < last_epoch {
                        return Err("epoch went backwards".to_string());
                    }
                    last_epoch = snap.epoch();
                    snap.resolve_str("cell-be", "latest")
                        .map_err(|e| e.to_string())?;
                    reads += 1;
                }
                Ok(reads)
            })
        })
        .collect();
    for rev in 0..64u32 {
        let layer = Layer::new(LayerKind::Environment, "rev")
            .set(Target::All, Property::fixed("SMOKE_REV", rev.to_string()));
        reg.publish(&compose(base.platform.platform(), &[layer]));
    }
    stop.store(true, Ordering::Relaxed);
    let mut total_reads = 0u64;
    let mut reader_err = None;
    for h in readers {
        match h.join().expect("reader thread") {
            Ok(n) => total_reads += n,
            Err(e) => reader_err = Some(e),
        }
    }
    smoke.check(
        reader_err.is_none(),
        &format!(
            "concurrent readers stay consistent ({total_reads} reads{})",
            reader_err
                .as_deref()
                .map(|e| format!(": {e}"))
                .unwrap_or_default()
        ),
    );
    smoke.check(total_reads > 0, "readers made progress");

    let final_snap = reg.snapshot();
    let doc = Json::obj([
        ("kind", Json::str("registry-smoke")),
        ("series", Json::Num(final_snap.len() as f64)),
        ("releases", Json::Num(final_snap.total_releases() as f64)),
        ("epoch", Json::Num(final_snap.epoch() as f64)),
        ("concurrent_reads", Json::Num(total_reads as f64)),
        ("failures", Json::Num(f64::from(smoke.failures()))),
    ]);
    smoke.write_artifacts(&[("BENCH_registry_smoke.json", &doc.to_pretty())]);
    smoke.finish()
}
