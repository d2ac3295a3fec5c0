//! Zero-cost assertion for the default build: without the
//! `model-check` feature, the shim's types must be *type-identical* to
//! `std::sync` / `std::thread` — no wrapper structs, no extra state —
//! so code ported onto the shim compiles to exactly what it compiled
//! to before.

#![cfg(not(feature = "model-check"))]
#![allow(clippy::unwrap_used)]

/// Compile-time type identity: these functions only type-check if the
/// shim names *are* the std types (a newtype with the same API would
/// fail here).
#[test]
fn shim_types_are_std_types() {
    fn takes_std_mutex(_: &std::sync::Mutex<i32>) {}
    fn takes_std_condvar(_: &std::sync::Condvar) {}
    fn takes_std_atomic(_: &std::sync::atomic::AtomicUsize) {}
    fn takes_std_handle(_: std::thread::JoinHandle<()>) {}

    let m: sweep_check::sync::Mutex<i32> = sweep_check::sync::Mutex::new(1);
    takes_std_mutex(&m);

    let c: sweep_check::sync::Condvar = sweep_check::sync::Condvar::new();
    takes_std_condvar(&c);

    let a: sweep_check::sync::atomic::AtomicUsize = sweep_check::sync::atomic::AtomicUsize::new(0);
    takes_std_atomic(&a);

    let h: sweep_check::thread::JoinHandle<()> = sweep_check::thread::spawn(|| {});
    takes_std_handle(h);
}

/// Size identity — belt and braces on top of type identity (trivially
/// true given the above, but states the "no wrapper state" invariant
/// in the form its acceptance check asks for).
#[test]
fn shim_types_add_no_state() {
    assert_eq!(
        std::mem::size_of::<sweep_check::sync::Mutex<u64>>(),
        std::mem::size_of::<std::sync::Mutex<u64>>(),
    );
    assert_eq!(
        std::mem::size_of::<sweep_check::sync::Condvar>(),
        std::mem::size_of::<std::sync::Condvar>(),
    );
    assert_eq!(
        std::mem::size_of::<sweep_check::sync::atomic::AtomicUsize>(),
        std::mem::size_of::<usize>(),
    );
}

/// Behavior sanity: the usual lock/wait/notify dance works through the
/// shim names.
#[test]
fn shim_behaves_like_std() {
    use std::sync::Arc;
    use sweep_check::sync::{Condvar, Mutex};

    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let pair2 = Arc::clone(&pair);
    let t = sweep_check::thread::spawn(move || {
        let (m, cv) = &*pair2;
        *m.lock().unwrap() = true;
        cv.notify_one();
    });
    let (m, cv) = &*pair;
    let mut ready = m.lock().unwrap();
    while !*ready {
        ready = cv.wait(ready).unwrap();
    }
    assert!(*ready);
    t.join().unwrap();
}
