//! **Ablation** — the *run-anywhere* optimization (§II-A): pinned versus
//! work-stealing execution of a skewed workload whose components all live
//! in one part.
//!
//! Pinned execution serializes the hot part's work on its single service
//! lane; with `rare-state` declared, the engine steals invocations onto
//! every part's lane, at the price of remote state access.  On a multicore
//! host the wall-clock gap approaches the part count; the invocation
//! distribution below shows the mechanism regardless of cores.
//!
//! Usage: `cargo run --release -p ripple-bench --bin ablation_stealing --
//! [--components 400] [--work-us 200] [--parts 4] [--trials 3]`

#![expect(clippy::disallowed_methods, reason = "components simulate work")]

use std::sync::Arc;

use ripple_bench::{timed_trials, Args, Stats};
use ripple_core::{
    CollectingExporter, ComputeContext, EbspError, Exporter, FnLoader, Job, JobProperties,
    JobRunner, LoadSink, RunOptions,
};
use ripple_kv::PartId;
use ripple_store_mem::MemStore;

struct SkewedWork {
    work_us: u64,
    rare_state: bool,
    trace: Arc<CollectingExporter<u32, u32>>, // (key, executing part)
}

impl Job for SkewedWork {
    type Key = u32;
    type State = u64;
    type Message = u64;
    type OutKey = u32;
    type OutValue = u32;

    fn state_tables(&self) -> Vec<String> {
        vec!["ablation".to_owned()]
    }

    fn properties(&self) -> JobProperties {
        JobProperties {
            one_msg: true,
            no_continue: true,
            rare_state: self.rare_state,
            deterministic: true,
            ..JobProperties::default()
        }
    }

    fn direct_output(&self) -> Option<Arc<dyn Exporter<u32, u32>>> {
        Some(self.trace.clone() as Arc<dyn Exporter<u32, u32>>)
    }

    fn compute(&self, ctx: &mut ComputeContext<'_, Self>) -> Result<bool, EbspError> {
        let key = *ctx.key();
        let part = ctx.part().0;
        ctx.output(key, part)?;
        std::thread::sleep(std::time::Duration::from_micros(self.work_us));
        let payload = ctx.messages().first().copied().unwrap_or(0);
        ctx.write_state(0, &(payload + 1))?;
        Ok(false)
    }
}

fn keys_in_part(parts: u32, part: u32, count: usize) -> Vec<u32> {
    (0u32..)
        .filter(|k| ripple_core::key_to_routed(k).part_for(parts) == PartId(part))
        .take(count)
        .collect()
}

fn main() {
    let args = Args::capture();
    let components = args.get("components", 400usize);
    let work_us = args.get("work-us", 200u64);
    let parts = args.get("parts", 4u32);
    let trials = args.get("trials", 3usize);

    println!(
        "run-anywhere ablation: {components} components, all homed in part 0 \
         of {parts}, {work_us}us of work each, {trials} trials"
    );

    for (label, rare_state) in [("pinned   ", false), ("stealing ", true)] {
        let mut distribution = vec![0u64; parts as usize];
        let times = timed_trials(trials, |_| {
            let store = MemStore::builder().default_parts(parts).build();
            let trace = Arc::new(CollectingExporter::new());
            let job = Arc::new(SkewedWork {
                work_us,
                rare_state,
                trace: Arc::clone(&trace),
            });
            let keys = keys_in_part(parts, 0, components);
            JobRunner::new(store)
                .launch(
                    job,
                    RunOptions::new().loaders(vec![Box::new(FnLoader::new(
                        move |sink: &mut dyn LoadSink<SkewedWork>| {
                            for k in keys {
                                sink.message(k, 1)?;
                            }
                            Ok(())
                        },
                    ))]),
                )
                .expect("ablation run");
            distribution = vec![0u64; parts as usize];
            for (_, part) in trace.take() {
                distribution[part as usize] += 1;
            }
        });
        let stats = Stats::of(&times);
        println!("  {label}: {stats} s, invocations per part {distribution:?}");
    }
}
