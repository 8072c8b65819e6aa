//! Fixture: batch results merged in arrival order — every accumulation
//! below depends on which worker finishes first, so two runs of the
//! same input can merge in different orders.

/// Drains the result channel with an explicit `recv` loop, pushing in
/// completion order.
pub fn merge_by_recv(rx: std::sync::mpsc::Receiver<u64>) -> Vec<u64> {
    let mut results = Vec::new();
    while let Ok(r) = rx.recv() {
        results.push(r);
    }
    results
}

/// Iterates the receiver directly — the same arrival-order bug without
/// a spelled-out `recv` call.
pub fn merge_by_iteration(rx: std::sync::mpsc::Receiver<u64>) -> Vec<u64> {
    let mut results = Vec::new();
    for r in rx {
        results.push(r);
    }
    results
}

/// Batch-extends from a non-blocking drain; still completion order.
pub fn merge_by_extend(rx: std::sync::mpsc::Receiver<u64>) -> Vec<u64> {
    let mut results = Vec::new();
    loop {
        let Ok(r) = rx.try_recv() else { break };
        results.extend(std::iter::once(r));
    }
    results
}
