//! The seed reaches only the generator: a traced replay of the same
//! seed does exactly the same work, and another seed sends other frames.

use car_benchmark::trace::{self, Size};
use car_benchmark::workloads::{self, Step, Workload};

#[test]
fn same_seed_gives_identical_counters() {
    for workload in [
        Workload::ColdClassify,
        Workload::EditSession,
        Workload::CrashRecovery,
    ] {
        let first = trace::run(workload, 5, 2.0, Size::Small).expect("traced replay");
        let second = trace::run(workload, 5, 2.0, Size::Small).expect("traced replay");
        assert_eq!(first.tally.failed, 0, "{}", workload.name());
        for key in [
            "lp.pivots",
            "logic.propagations",
            "core.enumerate.compound_classes",
        ] {
            assert!(
                first.counts.get(key).copied().unwrap_or(0) > 0,
                "{}: {key} never moved",
                workload.name()
            );
        }
        assert_eq!(first.counts, second.counts, "{}", workload.name());
    }
}

#[test]
fn another_seed_changes_the_stream() {
    let frames = |workload, seed| -> Vec<String> {
        let script = workloads::script(workload, seed, 2.0, 1).expect("server workload");
        script
            .setup
            .into_iter()
            .chain(script.window)
            .filter_map(|s| match s {
                Step::Frame((_, frame, _)) => Some(frame),
                Step::Crash => None,
            })
            .collect()
    };
    for workload in [
        Workload::EditSession,
        Workload::SharedReads,
        Workload::CrashRecovery,
    ] {
        assert_eq!(
            frames(workload, 5),
            frames(workload, 5),
            "{}",
            workload.name()
        );
        assert_ne!(
            frames(workload, 5),
            frames(workload, 6),
            "{}",
            workload.name()
        );
    }
    let texts = |seed| -> Vec<String> {
        workloads::corpus(seed)
            .into_iter()
            .map(|i| i.text)
            .collect()
    };
    assert_ne!(texts(5), texts(6));
}
