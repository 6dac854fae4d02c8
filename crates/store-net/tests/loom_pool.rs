//! Loom models of the connection pool's response-dispatch table.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p ripple-store-net --test
//! loom_pool`.  Compiles to nothing in ordinary builds.
//!
//! The property under check is the anti-stranding invariant documented on
//! [`ripple_store_net::dispatch::Dispatch`]: a request racing the reader
//! thread's connection-death declaration is either *refused at
//! registration* (the writer fails it fast) or *drained by the kill* (the
//! reader fails it) — under no interleaving does a registered completer
//! survive unanswered.
#![cfg(loom)]

use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;
use ripple_store_net::dispatch::Dispatch;
use ripple_store_net::proto;

/// The frame-kind list is a usable id space: no duplicates, and the
/// request/response split sits at the top bit as the framing doc says.
#[test]
fn frame_kinds_are_distinct_and_split_on_the_top_bit() {
    let mut seen = std::collections::BTreeSet::new();
    for &(name, kind) in proto::FRAME_KINDS {
        assert!(seen.insert(kind), "duplicate frame kind {kind:#04x}");
        let is_resp = kind & 0x80 != 0;
        assert_eq!(
            is_resp,
            name.starts_with("RESP_"),
            "top-bit split broken at {name}"
        );
    }
}

/// The anti-stranding invariant is frame-kind-independent: for every
/// kind in the protocol, a request registered under that kind's id and
/// racing the reader's kill is completed exactly once.  One tiny model
/// per kind keeps each state space trivial while tethering coverage to
/// the full opcode list, [`proto::FRAME_KINDS`].
#[test]
fn no_frame_kind_can_be_stranded_by_a_racing_kill() {
    for &(_, kind) in proto::FRAME_KINDS {
        let id = u64::from(kind);
        loom::model(move || {
            let dispatch: Arc<Dispatch<Arc<AtomicUsize>>> = Arc::new(Dispatch::new());
            let completions = Arc::new(AtomicUsize::new(0));

            let writer = {
                let dispatch = Arc::clone(&dispatch);
                let completions = Arc::clone(&completions);
                loom::thread::spawn(move || {
                    let completer = Arc::clone(&completions);
                    if dispatch.register(id, completer) {
                        true
                    } else {
                        completions.fetch_add(1, Ordering::SeqCst);
                        false
                    }
                })
            };
            let reader = {
                let dispatch = Arc::clone(&dispatch);
                loom::thread::spawn(move || {
                    for (_, completer) in dispatch.kill() {
                        completer.fetch_add(1, Ordering::SeqCst);
                    }
                })
            };

            let registered = writer.join().unwrap();
            reader.join().unwrap();
            if registered {
                for (_, completer) in dispatch.kill() {
                    completer.fetch_add(1, Ordering::SeqCst);
                }
            }
            assert_eq!(completions.load(Ordering::SeqCst), 1);
        });
    }
}

/// One writer registers while the reader kills: the completer must end up
/// completed by exactly one side.
#[test]
fn racing_register_and_kill_never_strand_a_request() {
    loom::model(|| {
        let dispatch: Arc<Dispatch<Arc<AtomicUsize>>> = Arc::new(Dispatch::new());
        let completions = Arc::new(AtomicUsize::new(0));

        let writer = {
            let dispatch = Arc::clone(&dispatch);
            let completions = Arc::clone(&completions);
            loom::thread::spawn(move || {
                let completer = Arc::clone(&completions);
                if dispatch.register(1, completer) {
                    true // registered: someone must complete it
                } else {
                    // Refused: the writer side fails the request itself.
                    completions.fetch_add(1, Ordering::SeqCst);
                    false
                }
            })
        };
        let reader = {
            let dispatch = Arc::clone(&dispatch);
            loom::thread::spawn(move || {
                for (_, completer) in dispatch.kill() {
                    completer.fetch_add(1, Ordering::SeqCst);
                }
            })
        };

        let registered = writer.join().unwrap();
        reader.join().unwrap();

        if registered {
            // The registration won the race; the kill may have missed it
            // (kill ran first), in which case a later terminal frame or a
            // second kill must still find it.
            for (_, completer) in dispatch.kill() {
                completer.fetch_add(1, Ordering::SeqCst);
            }
        }
        assert_eq!(
            completions.load(Ordering::SeqCst),
            1,
            "the request must be completed exactly once, by either side"
        );
    });
}

/// Death is permanent: once any thread observes a refusal, every later
/// registration is refused too, so a reconnect (a fresh `Dispatch`) is the
/// only way forward — there is no revival window that could strand a
/// request registered "in between".
#[test]
fn death_is_monotonic_across_threads() {
    loom::model(|| {
        let dispatch: Arc<Dispatch<usize>> = Arc::new(Dispatch::new());

        let killer = {
            let dispatch = Arc::clone(&dispatch);
            loom::thread::spawn(move || dispatch.kill().len())
        };
        let probe = {
            let dispatch = Arc::clone(&dispatch);
            loom::thread::spawn(move || {
                let first = dispatch.register(1, 10);
                let second = dispatch.register(2, 20);
                (first, second)
            })
        };

        let drained_by_killer = killer.join().unwrap();
        let (first, second) = probe.join().unwrap();
        assert!(
            first || !second,
            "a refusal must never be followed by an acceptance"
        );
        // Every accepted registration was drained exactly once — by the
        // racing kill or by this final one.  Nothing leaks, nothing doubles.
        let leftover = dispatch.kill();
        let accepted = usize::from(first) + usize::from(second);
        assert_eq!(drained_by_killer + leftover.len(), accepted);
    });
}
