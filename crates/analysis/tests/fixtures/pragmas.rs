// Fixture: suppression-pragma hygiene. One valid trailing pragma, one
// valid own-line pragma, one reasonless pragma (A000), one pragma naming
// a rule that moved to clippy (A000, unknown rule), and one unused
// suppression (A000).

pub fn suppressed_trailing(loss: &Tensor) {
    loss.backward(); // aimts-lint: allow(A012, fixture: reference gradient for the train-parity test)
}

pub fn suppressed_own_line(data: Vec<f32>) -> Tensor {
    // aimts-lint: allow(A012, fixture: training-side constructor kept for comparison)
    Tensor::with_storage(data, Storage::Shared)
}

pub fn reasonless(loss: &Tensor) {
    loss.backward(); // aimts-lint: allow(A012)
}

pub fn moved_rule(loss: &Tensor) {
    loss.backward(); // aimts-lint: allow(A001, clippy::expect_used checks this now)
}

pub fn unused() -> u32 {
    let n = 1; // aimts-lint: allow(A008, nothing held here)
    n + 1
}
