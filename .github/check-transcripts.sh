#!/usr/bin/env bash
# The reproduction gate: runs all 18 exp-* binaries at LORI_THREADS=1 and 4
# and checks what they print and write against the committed results/.
#
#  1. Transcripts. Every stdout equals results/<name>.txt, apart from the
#     lines FILTER drops: the manifest and output-path lines, fig3's four
#     timing rows and warningnet's three timing rows.
#  2. Artifacts. Every JSON file a binary writes, manifests aside, is
#     byte-identical between the two thread counts, and to results/<file>
#     where that file is committed.
#  3. Golden work. fig3's manifest counts 283754365 golden transient steps
#     at both thread counts, so the golden engine still takes every step.
#  4. Run records. `lori-report check` passes on every run's manifest and
#     event stream, and `lori-report profile` reads every stream. Profiles
#     hold timings, so they stay out of step 2's comparison.
#
# Run it from the repository root after
# `cargo build --release -p lori-bench -p lori-report`:
#
#   .github/check-transcripts.sh [OUT_DIR]
#
# OUT_DIR (default results-gate) receives one directory per thread count.
# Every failure is reported before the script exits non-zero.
set -euo pipefail

out=${1:-results-gate}
bin=target/release
filter='^(manifest|points|she data|guardband data):|^ML training:|^\| golden \(SPICE-like\) |^\| ML characterizer |^instance-library generation speedup:|^\| (warning query time|task execution time|warning cost / task cost) '
fig3_steps=283754365

exps=$(cd crates/bench/src/bin && ls exp-*.rs | sed 's/\.rs$//')
if [ "$(echo "$exps" | wc -l)" -ne 18 ]; then
    echo "expected 18 exp-* binaries, found: $exps" >&2
    exit 1
fi

failed=0
fail() {
    echo "FAIL: $*" >&2
    failed=1
}

for threads in 1 4; do
    dir="$out/T$threads"
    rm -rf "$dir"
    mkdir -p "$dir"
    for exp in $exps; do
        LORI_THREADS=$threads LORI_RESULTS_DIR="$dir" "$bin/$exp" > "$dir/$exp.txt"
        diff <(grep -vE "$filter" "results/$exp.txt") <(grep -vE "$filter" "$dir/$exp.txt") \
            || fail "$exp stdout differs from results/$exp.txt at LORI_THREADS=$threads"
        "$bin/lori-report" check "$exp" --results-dir "$dir" > "$dir/$exp.check.txt" \
            || fail "lori-report check fails on $exp at LORI_THREADS=$threads: $dir/$exp.check.txt"
        "$bin/lori-report" profile "$exp" --results-dir "$dir" > "$dir/$exp.profile.txt" \
            || fail "lori-report profile fails on $exp at LORI_THREADS=$threads"
    done
    steps=$(grep -oE '"circuit\.transient\.steps":[0-9]+' "$dir/exp-fig3-flow.manifest.json" \
        | cut -d: -f2)
    [ "$steps" = "$fig3_steps" ] \
        || fail "exp-fig3-flow took ${steps:-no} golden steps at LORI_THREADS=$threads, not $fig3_steps"
done

artifacts=$(cd "$out/T1" && ls *.json | grep -vE '\.(manifest|profile)\.json$')
for f in $artifacts; do
    cmp "$out/T1/$f" "$out/T4/$f" || fail "$f differs between LORI_THREADS=1 and 4"
done
for committed in results/*.json; do
    f=$(basename "$committed")
    cmp "$committed" "$out/T1/$f" || fail "$f differs from results/$f"
done

echo "checked $(echo "$exps" | wc -l) transcripts and run records at LORI_THREADS=1 and 4," \
    "$(echo "$artifacts" | wc -w) JSON artifacts, and fig3's golden step count"
exit "$failed"
