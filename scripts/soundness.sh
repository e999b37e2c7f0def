#!/usr/bin/env bash
# Soundness gate: the dynamic layer behind aimts-lint's static rules.
#
#   1. Miri interprets the tensor crate's unsafe modules (the HotCell
#      aliasing/race validator, the lock-order checker, the SIMD scalar
#      fallbacks) looking for UB the debug tally cannot see.
#   2. A ThreadSanitizer build runs the parallel determinism tests to
#      catch data races the single-process tally misses.
#   3. The live workspace must lint at zero diagnostics with aimts-lint's
#      full rule pack (A000, A002, A008-A010, A012).
#
# Each tool-dependent stage is gated on the tool being installed: CI
# installs nightly + miri + rust-src and runs everything; a dev box
# without them still runs the lint stage and reports what was skipped
# (skips are loud, never silent). AIMTS_SOUNDNESS_STRICT=1 turns a skip
# into a failure (CI sets it so a broken toolchain cannot pass quietly).
set -euo pipefail

cd "$(dirname "$0")/.."

strict="${AIMTS_SOUNDNESS_STRICT:-0}"
skipped=0

skip() {
    echo "soundness: SKIP $1 ($2)" >&2
    skipped=1
}

have_miri() {
    cargo +nightly miri --version >/dev/null 2>&1
}

have_rust_src() {
    [ -d "$(rustc +nightly --print sysroot 2>/dev/null)/lib/rustlib/src/rust/library" ]
}

echo "== soundness: workspace lint (A000, A002, A008-A010, A012; zero diagnostics) =="
cargo run -q -p aimts-lint -- check

echo "== soundness: miri on tensor unsafe modules =="
if have_miri; then
    # Scoped to the modules that contain (or guard) the unsafe code:
    # hotcell's UnsafeCell storage + race validator, lockorder's tokens,
    # and the SIMD kernels' scalar dispatch path (Miri takes the
    # fallback branch; the pointer arithmetic around it still runs).
    MIRIFLAGS="${MIRIFLAGS:---strict-provenance}" \
        cargo +nightly miri test -p aimts-tensor --lib hotcell:: lockorder:: simd::
else
    skip "miri" "cargo +nightly miri not installed"
fi

echo "== soundness: ThreadSanitizer on parallel determinism tests =="
if have_rust_src; then
    # TSan needs -Zbuild-std so std itself is instrumented; otherwise
    # every std synchronization primitive is an opaque (false) race.
    RUSTFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -Zbuild-std \
        --target x86_64-unknown-linux-gnu \
        --test parallel_determinism
else
    skip "tsan" "nightly rust-src not installed (-Zbuild-std needs it)"
fi

if [ "$skipped" = 1 ] && [ "$strict" = 1 ]; then
    echo "soundness: FAIL — stages were skipped under AIMTS_SOUNDNESS_STRICT=1" >&2
    exit 1
fi
echo "soundness: done"
