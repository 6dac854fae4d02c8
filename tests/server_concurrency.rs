//! The job-service guarantees, end to end: concurrent tenants over one
//! shared store must be **byte-identical** to serial one-shot runs (on
//! both the in-process and the networked backend), admission quotas must
//! refuse with typed errors, the fair scheduler must interleave tenants
//! instead of serializing them, serving-mode SSSP must answer point
//! queries between barriers while mutations stream in, and per-job step
//! accounting must land in the server's profile JSON.

#![expect(clippy::disallowed_methods, reason = "waits for changes to drain")]

use std::sync::Arc;

use ripple::graph::generate::{random_change_batch, random_undirected};
use ripple::graph::sssp::{bfs_oracle, distances_from_snapshot};
use ripple::prelude::*;
use ripple::server::{AdmitError, JobQuota};

type Mixer = ripple::ebsp::SimpleJob<u32, u64, u64>;

/// Rounds each key runs before going quiet (packed into the state's top
/// bits so the job carries its own termination).
const MIXER_ROUNDS: u64 = 12;

/// A small state-mutating job with per-key work: each key folds its id
/// into a rolling hash and pokes its ring neighbor, for a bounded number
/// of rounds.  Deterministic under BSP semantics, so any two runs — no
/// matter how their part-tasks were scheduled — must agree byte for byte.
fn mixer(name: &str, keys: u32) -> Mixer {
    Mixer::builder(name)
        .compute(move |ctx| {
            let key = *ctx.key();
            let v = ctx.read_state(0)?.unwrap_or(0);
            let rounds = v >> 48;
            if rounds == 0 {
                return Ok(false);
            }
            let mixed = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(u64::from(key) | 1)
                & 0x0000_FFFF_FFFF_FFFF;
            ctx.write_state(0, &(((rounds - 1) << 48) | mixed))?;
            if rounds > 1 {
                ctx.send((key + 1) % keys, mixed);
            }
            Ok(rounds > 1)
        })
        .build()
}

fn mixer_loader(keys: u32, seed: u64) -> Box<dyn ripple::ebsp::Loader<Mixer>> {
    Box::new(ripple::ebsp::FnLoader::new(
        move |sink: &mut dyn LoadSink<Mixer>| {
            for k in 0..keys {
                let low = seed.wrapping_add(u64::from(k)) & 0x0000_FFFF_FFFF_FFFF;
                sink.state(0, k, (MIXER_ROUNDS << 48) | low)?;
                sink.enable(k)?;
            }
            Ok(())
        },
    ))
}

const TENANT_PARTS: u32 = 4;
const TENANT_KEYS: u32 = 32;

/// Runs `jobs` tenants concurrently through a server over one shared
/// store; returns each tenant's final state digest and steps/work.
fn concurrent_digests<S: KvStore>(shared: S, jobs: usize) -> Vec<(u64, u32, u64)> {
    use ripple::server::{JobServer, JobSpec, ServerConfig};
    let server = JobServer::single(ServerConfig::with_workers(3), shared);

    let mut handles = Vec::new();
    for j in 0..jobs {
        let name = format!("mix{j}");
        let handle = server
            .submit(
                &name,
                &JobSpec::new(TENANT_PARTS),
                Arc::new(mixer(&name, TENANT_KEYS)),
                RunOptions::new().loader(mixer_loader(TENANT_KEYS, 1000 + j as u64)),
            )
            .expect("admit tenant");
        handles.push(handle);
    }
    handles
        .into_iter()
        .enumerate()
        .map(|(j, handle)| {
            let outcome = handle.wait().expect("tenant run");
            let d = digest(server.store(), &format!("mix{j}"));
            (d, outcome.steps, outcome.metrics.invocations)
        })
        .collect()
}

/// Runs the same tenants serially, each on a fresh store with a plain
/// one-shot runner; digests are canonical, so they compare across
/// backends.
fn serial_digests<S: KvStore>(mut fresh: impl FnMut() -> S, jobs: usize) -> Vec<(u64, u32, u64)> {
    (0..jobs)
        .map(|j| {
            let name = format!("mix{j}");
            let store = fresh();
            let outcome = JobRunner::new(store.clone())
                .launch(
                    Arc::new(mixer(&name, TENANT_KEYS)),
                    RunOptions::new().loader(mixer_loader(TENANT_KEYS, 1000 + j as u64)),
                )
                .expect("serial run");
            (
                digest(&store, &name),
                outcome.steps,
                outcome.metrics.invocations,
            )
        })
        .collect()
}

fn digest<S: KvStore>(store: &S, table: &str) -> u64 {
    let handle = store.lookup_table(table).expect("table exists");
    store.snapshot_table(&handle).expect("snapshot").digest()
}

fn assert_identical(concurrent: &[(u64, u32, u64)], serial: &[(u64, u32, u64)], backend: &str) {
    for (j, (c, s)) in concurrent.iter().zip(serial).enumerate() {
        assert_eq!(c.1, s.1, "tenant mix{j} on {backend}: step count diverged");
        assert_eq!(c.2, s.2, "tenant mix{j} on {backend}: work diverged");
        assert_eq!(
            c.0, s.0,
            "tenant mix{j} on {backend}: concurrent state diverged from serial"
        );
    }
}

#[test]
fn four_concurrent_jobs_over_shared_memstore_match_serial_byte_for_byte() {
    let shared = MemStore::builder().default_parts(4).build();
    let concurrent = concurrent_digests(shared, 4);
    let serial = serial_digests(|| MemStore::builder().default_parts(4).build(), 4);
    assert_identical(&concurrent, &serial, "mem");
}

#[test]
fn four_concurrent_jobs_over_shared_netstore_match_serial_byte_for_byte() {
    let cluster = LoopbackCluster::spawn(2, 4);
    let concurrent = concurrent_digests(cluster.store.clone(), 4);
    // Digests are canonical (sorted key/value bytes), so the serial
    // baseline can run on the in-process store: same answer, one claim.
    let serial = serial_digests(|| MemStore::builder().default_parts(4).build(), 4);
    assert_identical(&concurrent, &serial, "net");
}

#[test]
fn admission_quotas_reject_with_typed_errors() {
    use ripple::server::{JobServer, JobSpec, ServerConfig};
    let store = MemStore::builder().default_parts(4).build();
    let config = ServerConfig {
        workers: 2,
        max_jobs: 1,
        default_quota: JobQuota {
            max_parts: 8,
            max_state_bytes: 1 << 20,
            max_supersteps: 100,
        },
        ..ServerConfig::default()
    };
    let server = JobServer::single(config, store);

    // Parts quota.
    let err = server
        .admit_resident("wide", &JobSpec::new(16))
        .expect_err("parts over quota");
    assert_eq!(
        err,
        AdmitError::PartsQuota {
            requested: 16,
            max: 8
        }
    );

    // Memory quota.
    let err = server
        .admit_resident("fat", &JobSpec::new(4).state_bytes(1 << 21))
        .expect_err("memory over quota");
    assert_eq!(
        err,
        AdmitError::MemoryQuota {
            declared: 1 << 21,
            max: 1 << 20
        }
    );

    // A per-job quota override relaxes the default.
    let resident = server
        .admit_resident(
            "wide-ok",
            &JobSpec::new(16).quota(JobQuota {
                max_parts: 32,
                max_state_bytes: 1 << 20,
                max_supersteps: 100,
            }),
        )
        .expect("override admits");

    // Job-count limit (the resident holds the only slot)...
    let err = server
        .admit_resident("second", &JobSpec::new(4))
        .expect_err("job limit");
    assert_eq!(
        err,
        AdmitError::TooManyJobs {
            admitted: 1,
            max: 1
        }
    );

    // ...while a duplicate name reports the more specific refusal even
    // with the server full.
    let err = server
        .admit_resident("wide-ok", &JobSpec::new(4))
        .expect_err("name collision");
    assert_eq!(err, AdmitError::NameTaken("wide-ok".into()));

    // Dropping the resident frees both the slot and the name.
    drop(resident);
    let resident = server
        .admit_resident("wide-ok", &JobSpec::new(4))
        .expect("slot and name freed");
    drop(resident);

    // Shutdown refuses everything.
    server.shutdown();
    let err = server
        .admit_resident("late", &JobSpec::new(4))
        .expect_err("shutting down");
    assert_eq!(err, AdmitError::ShuttingDown);
}

#[test]
fn superstep_quota_caps_a_runaway_job() {
    use ripple::server::{JobServer, JobSpec, ServerConfig};
    let store = MemStore::builder().default_parts(2).build();
    let server = JobServer::single(ServerConfig::with_workers(2), store);

    // A job that never converges; the quota's step cap must stop it.
    let forever = Mixer::builder("forever")
        .compute(|ctx| {
            let v = ctx.read_state(0)?.unwrap_or(0);
            ctx.write_state(0, &(v + 1))?;
            Ok(true)
        })
        .build();
    let handle = server
        .submit(
            "forever",
            &JobSpec::new(2).quota(JobQuota {
                max_parts: 8,
                max_state_bytes: 1 << 20,
                max_supersteps: 7,
            }),
            Arc::new(forever),
            RunOptions::new().loader(mixer_loader(4, 1)),
        )
        .expect("admit");
    // The step cap surfaces as an engine error at the quota boundary —
    // the runaway yields its workers back instead of spinning.
    let err = handle.wait().expect_err("step quota must cap the run");
    assert!(
        matches!(err, EbspError::StepLimitExceeded { limit: 7 }),
        "unexpected error: {err:?}"
    );
    use ripple::server::JobStatus;
    let account = server.account("forever").expect("account exists");
    assert_eq!(account.status, JobStatus::Failed);
    assert_eq!(server.admitted(), 0, "failed job must free its slot");
}

#[test]
fn fair_scheduler_interleaves_concurrent_tenants() {
    use ripple::server::{JobServer, JobSpec, ServerConfig};
    let store = MemStore::builder().default_parts(4).build();
    // One compute slot: without fair scheduling the first tenant would
    // hold it for its entire run.
    let server = JobServer::single(ServerConfig::with_workers(1), store);

    let mut handles = Vec::new();
    for name in ["alpha", "beta"] {
        let handle = server
            .submit(
                name,
                &JobSpec::new(4),
                Arc::new(mixer(name, 48)),
                RunOptions::new().loader(mixer_loader(48, 7)),
            )
            .expect("admit tenant");
        handles.push(handle);
    }
    for handle in handles {
        let outcome = handle.wait().expect("tenant run");
        assert!(outcome.steps > 0);
    }

    let log = server.scheduler().grant_log();
    let accounts = server.accounts();
    assert_eq!(accounts.len(), 2);
    for account in &accounts {
        assert!(
            account.sched_granted > 0,
            "tenant {} was never granted a slot",
            account.name
        );
    }
    // Not serialized: the second tenant's first grant lands before the
    // first tenant's last grant.
    let first_of_beta = log.iter().position(|&id| id == accounts[1].sched_id);
    let last_of_alpha = log.iter().rposition(|&id| id == accounts[0].sched_id);
    match (first_of_beta, last_of_alpha) {
        (Some(b), Some(a)) => assert!(
            b < a,
            "tenants were serialized: beta first grant {b} after alpha last grant {a}"
        ),
        _ => panic!("both tenants must appear in the grant log"),
    }
}

#[test]
fn serving_sssp_answers_between_barriers_while_mutations_stream() {
    use ripple::server::{JobServer, JobSpec, ServerConfig, ServingSssp};
    let n = 800u32;
    let mut graph = random_undirected(n, 6_400, 0.8, 0xBEEF);
    let source = 0;

    let store = MemStore::builder().default_parts(4).build();
    let server = JobServer::single(ServerConfig::with_workers(3), store);
    let serving = ServingSssp::start(&server, "serve", &JobSpec::new(4), graph.graph(), source)
        .expect("start serving");
    let version_after_init = serving.version();
    assert!(
        version_after_init > 0,
        "the initial solve must refresh the snapshot at its barriers"
    );

    // Queries answered against the initial graph are already exact.
    let initial_oracle = bfs_oracle(&graph, source);
    for v in [0u32, 1, n / 2, n - 1] {
        let answer = serving.query(v);
        assert_eq!(answer.dist, Some(initial_oracle[v as usize]));
    }

    // Stream mutation batches; query between barriers the whole time.
    let mut last_version = serving.version();
    for round in 0..6u64 {
        let batch = random_change_batch(n, 40, 0.8, 0xF00D + round);
        for c in &batch {
            graph.apply(*c);
        }
        assert_eq!(serving.push_batch(&batch), batch.len());
        for q in 0..40u64 {
            let v = ((round * 40 + q) * 2_654_435_761 % u64::from(n)) as u32;
            let answer = serving.query(v);
            assert!(
                answer.version >= last_version,
                "snapshot version must be monotonic"
            );
            last_version = answer.version;
        }
    }
    while serving.pending() > 0 {
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let queries_issued = 4 + 6 * 40;
    let report = serving.finish().expect("finish serving");
    assert_eq!(report.mutations_applied, 6 * 40);
    assert!(report.waves >= 1, "mutations must have run as waves");
    assert_eq!(report.queries, queries_issued);
    assert!(
        report.final_version > version_after_init,
        "waves must refresh the snapshot"
    );
    assert_eq!(report.refresh_errors, 0);

    // The served distances converge to a BFS oracle over the mutated
    // graph — streaming changed *when* answers update, never *what* they
    // converge to.
    let oracle = bfs_oracle(&graph, source);
    let table = server
        .store()
        .lookup_table("serve__sssp")
        .expect("serving table");
    let snapshot = server.store().snapshot_table(&table).expect("snapshot");
    for (v, d) in distances_from_snapshot(&snapshot).expect("decode") {
        assert_eq!(d, oracle[v as usize], "served distance diverged at {v}");
    }
}

/// An exact pin: one change wave through a resident tenant's gated runner
/// (the old `serve` bench's profiled wave: 500 vertices, 25 changes, 4
/// parts) marshals the same bytes every time, however the worker pool
/// schedules it.  A PR that changes the count updates it here and says why.
#[test]
fn a_resident_change_wave_marshals_an_exact_byte_count() {
    use ripple::graph::sssp::SelectiveInstance;
    use ripple::server::{JobServer, JobSpec, ServerConfig};
    let graph = random_undirected(500, 900, 0.8, 0x5E12E);
    let store = MemStore::builder().default_parts(4).build();
    let server = JobServer::single(ServerConfig::with_workers(4), store);
    let resident = server
        .admit_resident("wave", &JobSpec::new(4))
        .expect("admit");
    let (instance, _) = SelectiveInstance::initialize_on(
        resident.runner(),
        resident.store(),
        "wave__sssp",
        graph.graph(),
        0,
    )
    .expect("initial solve");
    let batch = random_change_batch(500, 25, 0.8, 0x5E12E * 7919);
    let wave = instance
        .apply_batch_on(resident.runner(), &batch)
        .expect("wave");
    assert_eq!(
        (wave.steps, wave.metrics.messages_sent),
        (4, 61),
        "(steps, messages)"
    );
    assert_eq!(wave.metrics.store.bytes_marshalled, 551);
}

#[test]
fn per_job_step_accounting_lands_in_profile_json() {
    use ripple::server::{JobServer, JobSpec, JobStatus, ServerConfig};
    let store = MemStore::builder().default_parts(4).build();
    let server = JobServer::single(ServerConfig::with_workers(2), store);

    let handle = server
        .submit(
            "metered",
            &JobSpec::new(4),
            Arc::new(mixer("metered", 24)),
            RunOptions::new().loader(mixer_loader(24, 99)),
        )
        .expect("admit");
    let outcome = handle.wait().expect("run");

    let account = server.account("metered").expect("account exists");
    assert_eq!(account.status, JobStatus::Done);
    assert_eq!(account.steps, u64::from(outcome.steps));
    assert_eq!(account.invocations, outcome.metrics.invocations);
    assert!(account.sched_granted > 0);
    assert!(
        account.compute_wall > std::time::Duration::ZERO,
        "profiles must feed the BSP cost terms"
    );

    let json = server.accounting_json();
    assert!(json.contains("\"name\":\"metered\""));
    assert!(json.contains("\"status\":\"done\""));
    assert!(json.contains(&format!("\"steps\":{}", outcome.steps)));
    assert!(json.contains("\"w_us\":"));
    assert!(json.contains("\"h_bytes\":"));
    assert!(json.contains("\"sched_wait_us\":"));
}
