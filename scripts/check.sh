#!/usr/bin/env bash
# Repository gate: formatting, lints, and the full test suite.
# Run from anywhere; mirrors what CI would enforce.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> determinism lint (scripts/lint_determinism.sh)"
./scripts/lint_determinism.sh

echo "==> cargo doc -D warnings (missing_docs included: every crate is #![warn(missing_docs)])"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> fault-injection property tests"
cargo test -q -p ccube-sim --test faults

echo "==> network-model equivalence suite (fabric passthrough == approx)"
cargo test -q -p ccube-sim --test fabric_equivalence

echo "==> preparation-cache equivalence suite (cache on == off, arena reuse)"
cargo test -q -p ccube-sim --test prep_equivalence

echo "==> sweep executor + golden sweeps in release (thread timing differs by profile)"
cargo test --release -q -p ccube-sim --test sweep
cargo test --release -q -p ccube --test sweep_golden

echo "==> figure goldens in release (the profile perfbench and ccube figures run)"
cargo test --release -q -p ccube --test golden_regression

echo "==> ccube figures: --no-prep-cache and --threads 1 reproduce the cached 2-worker CSVs"
rm -rf target/check-prep-cached target/check-prep-cold target/check-serial
cargo run -q --release -p ccube --bin ccube -- figures --threads 2 target/check-prep-cached > /dev/null
cargo run -q --release -p ccube --bin ccube -- figures --threads 2 --no-prep-cache target/check-prep-cold > /dev/null
cargo run -q --release -p ccube --bin ccube -- figures --threads 1 target/check-serial > /dev/null
diff -r target/check-prep-cached target/check-prep-cold
diff -r target/check-prep-cached target/check-serial
rm -rf target/check-prep-cached target/check-prep-cold target/check-serial

echo "==> static schedule analyzer (ccube lint)"
cargo run -q --release -p ccube --bin ccube -- lint all > /dev/null

echo "==> physical-layer analyzer (ccube lint --physical) and its goldens"
cargo run -q --release -p ccube --bin ccube -- lint --physical all --json > /dev/null
cargo test -q -p ccube --test lint_golden
cargo test -q -p ccube --test property_physical

echo "==> static analyzer and its goldens in release (the profile perfbench measures)"
cargo test --release -q -p ccube-collectives
cargo test --release -q -p ccube --test lint_golden --test property_lint

echo "==> fault-plan severance golden (uplink and spine windows on the spine/leaf fabric)"
cargo test -q -p ccube --test severance_golden

echo "==> physical-layer and fault suites in release (the profile perfbench measures)"
cargo test --release -q -p ccube --test property_physical
cargo test --release -q -p ccube-sim --test fabric_faults --test faults

echo "==> policy search with certified-bound pruning (ccube search --bounds)"
cargo run -q --release -p ccube --bin ccube -- search --bounds > /dev/null

echo "==> resilience smoke run (ccube faults --smoke)"
cargo run -q --release -p ccube --bin ccube -- faults --smoke

echo "==> resilience smoke run on the switch fabric (--fabric switch)"
cargo run -q --release -p ccube --bin ccube -- faults --smoke --fabric switch

echo "==> resilience smoke run on the 2-uplink spine/leaf fabric"
cargo run -q --release -p ccube --bin ccube -- faults --smoke --fabric switch --uplinks 2

echo "==> fabric fault-injection suite (failover, uplink/switch outages)"
cargo test -q -p ccube-sim --test fabric_faults

echo "==> fabric-resilience golden stays byte-identical"
cargo test -q -p ccube --test golden_regression ext_fabric_resilience_csv_matches_golden_byte_for_byte

echo "==> engine-matrix golden: every entry point x network model x fault plan, bit-for-bit"
cargo test -q -p ccube --test engine_matrix engine_matrix_matches_golden

echo "==> HTML trace viewer: payload goldens + doc-consistency audit"
cargo test -q -p ccube --test trace_html_golden
cargo test -q -p ccube --test doc_consistency

echo "==> HTML trace viewer renders self-contained single-run and diff files"
rm -rf target/check-html && mkdir -p target/check-html
cargo run -q --release -p ccube --bin ccube -- trace --html target/check-html/run.html > /dev/null
# trace --diff exits 1 when the traces differ (they do: different seeds);
# only exit codes above 1 are real failures.
status=0
cargo run -q --release -p ccube --bin ccube -- \
    trace --diff 7 8 --html target/check-html/diff.html > /dev/null || status=$?
[ "$status" -le 1 ]
for f in target/check-html/run.html target/check-html/diff.html; do
    grep -q 'id="ccube-trace-data"' "$f"
    grep -q '</html>' "$f"
    # Self-contained: no external scripts, styles, or fetches.
    ! grep -Eq 'src="http|href="http' "$f"
done
rm -rf target/check-html

echo "==> perfbench builds against the current public API (it is outside the workspace)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "All checks passed."
