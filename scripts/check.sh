#!/usr/bin/env bash
# Full local gate: everything CI (and the repo's tier-1 bar) checks.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --release (tensor + codegen: the SIMD micro-kernel and map_unary bodies that ship are the optimised ones, matmul_bits holds every matmul instantiation to the scalar fused loop and transcendental_bits sweeps exp/tanh/sigmoid over every finite f32; vm: the execute loop's wrapping arithmetic and the depth budget)"
cargo test -q --release -p acrobat-tensor -p acrobat-codegen -p acrobat-vm

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> differential fuzz smoke (checked mode, fixed seed)"
cargo run --release -p acrobat-bench --bin fuzz -- --cases 50 --seed 1

echo "==> Engine is Send + Sync (compile-time assertion present)"
grep -q 'assert_send_sync::<Engine>' crates/runtime/src/engine.rs

echo "==> concurrent serving stress (single-threaded test runner)"
RUST_TEST_THREADS=1 cargo test -q -p acrobat-bench --test concurrent_serving

echo "==> concurrent serving stress (4 test threads)"
RUST_TEST_THREADS=4 cargo test -q -p acrobat-bench --test concurrent_serving

echo "==> chaos serving (fault storms + deadlines + cancellation, 4 test threads)"
RUST_TEST_THREADS=4 cargo test -q -p acrobat-bench --test chaos_serving

echo "==> plan-cache smoke (steady-state hit rate >= 90%, cache-on == cache-off bit-for-bit)"
cargo test -q -p acrobat-bench --test plan_cache

echo "==> cohort isolation (cohort == solo bit-for-bit across the quick suite, chaos peers survive)"
RUST_TEST_THREADS=4 cargo test -q -p acrobat-bench --test broker_isolation

echo "==> kernel executor smoke (each quick-suite model once in checked mode: every compiled launch bit-identical to the interpreter oracle)"
cargo run --release -p acrobat-bench --bin kernel_backend -- --smoke

echo "==> kernel executor regression tests (unchecked == checked with the modeled ledger equal, one compile per kernel at every lane count, cache sharing, retune invalidation)"
cargo test -q -p acrobat-bench --test kernel_backend

echo "==> fiber determinism smoke (lane-canonical signatures invariant across worker counts)"
fiber_w1=$(cargo run --release -p acrobat-bench --bin fiber_determinism -- --workers 1)
fiber_w4=$(cargo run --release -p acrobat-bench --bin fiber_determinism -- --workers 4)
diff <(printf '%s\n' "$fiber_w1") <(printf '%s\n' "$fiber_w4") \
  || { echo "fiber signature/hit-rate JSON differs between worker counts"; exit 1; }

echo "==> one flush execution path, no knob (the lane split is chosen per launch, never configured)"
if grep -rn parallel_workers crates tests; then
  echo "parallel_workers is gone: the runtime splits a launch's lanes from its own flops"; exit 1
fi

echo "==> one request lifecycle (a solo run is a group of one; nothing outside run_group runs a request)"
if grep -rnE 'fn (run_direct|run_request|finish_run|demux_stats)\b|drive_timeout_ms|Deadline::[Ww]all' crates tests; then
  echo "the second lifecycle copy, the unset watchdog option and the wall-clock deadline are gone"; exit 1
fi
if [ "$(grep -rn 'run_batch(' crates/vm/src | grep -vc 'fn run_batch(')" != 1 ]; then
  echo "run_batch must have exactly one call site (run_group)"; exit 1
fi

echo "==> resilience keeps what recovers (retry with one knob, quarantine, interrupts; no lane-cap downshift, no admission gate)"
if grep -rnE 'max_in_flight|try_admit|AdmitPermit|Overloaded|downshift|consecutive_aborts|RetryPolicy|backoff_base_us' crates tests; then
  echo "the downshift and the admission gate are gone: each planned batch is one launch, every request runs, and retry is RuntimeOptions::max_retries alone"; exit 1
fi

echo "==> one modeled-time ledger (RuntimeStats is the only clock; no device-timeline what-if simulator)"
if grep -rnE 'TimelineOptions|DeviceTimeline|overlap_saved_us|timeline_overlap' crates tests; then
  echo "the device timeline is gone: every modeled charge is one += on its RuntimeStats account"; exit 1
fi

echo "==> one kernel-selection rule (Spec compiles a kernel on its first launch; no hotness gate, size classes or backend trait object)"
if grep -rnE 'spec_threshold|trait KernelBackend|dyn KernelBackend|InterpBackend|NUM_SIZE_CLASSES|size_class|retuned_with_profile|fn build_backend' crates tests; then
  echo "kernel selection has nothing to tune: under Spec the first launch of a kernel compiles it, every later one reuses it"; exit 1
fi

echo "==> one kernel executor (every launch runs a compiled kernel; the interpreter is checked mode's oracle, not a backend)"
if grep -rnE 'KernelBackendKind::Interp|Selection::|runtime\.backend' crates tests; then
  echo "the interpreter is no longer selectable: SpecializedBackend::select returns the compiled kernel, checked mode re-executes it through execute_prepared"; exit 1
fi

echo "==> one matrix multiply (matmul_raw is the register-blocked micro-kernel; no second row-blocked copy)"
if grep -rn matmul_raw_blocked crates tests; then
  echo "matmul_raw_blocked is gone: matmul_raw is the one micro-kernel, for one lane and for a lane stack"; exit 1
fi

echo "==> one AOT executor (flat register code on heap frames; no Code tree, no boxed branch jobs, no per-request big stack, no panic! on the request path)"
if grep -rnE 'enum Code\b|Box<Code>|fn run_branches|64 << 20' crates/vm/src/aot.rs crates/vm/src/driver.rs \
    | grep -v 'const VM_STACK: usize = 64 << 20;'; then
  echo "the Code-tree walker is gone: only the Relay-VM interpreter keeps a big stack (VM_STACK)"; exit 1
fi
if grep -n 'TensorRef\|OnceLock\|Arc<' crates/vm/src/aot.rs; then
  echo "aot.rs registers are plain words: no refcounted or lazily-set values in the lowering or the execute loop"; exit 1
fi
if grep -n 'panic!' crates/vm/src/aot.rs; then
  echo "what the lowering cannot resolve is a VmError::Unsupported from Executable::new, never a panic in a request"; exit 1
fi
if [ "$(grep -rn 'exec_op_site(' crates tests | grep -v 'fn exec_op_site(' | grep -vc '^crates/vm/src/interp.rs')" != 0 ]; then
  echo "exec_op_site is the Relay-VM baseline's dynamic path: interp.rs is its only caller"; exit 1
fi

echo "==> one request path (run/run_with is run_group of one; several requests batch only through run_cohort, no background queue)"
if grep -rnE 'BatchBroker|runtime\.broker|\.broker\s*=|fn submit\b' crates tests; then
  echo "the broker queue is gone: it never merged with one dispatch per core, and run_cohort is the explicit multi-request API"; exit 1
fi

echo "==> one performance harness (benchmark/ owns wall-clock speed; no modeled serving benches or criterion suites)"
if grep -rnE 'serving_throughput|continuous_batching|chaos_sweep|flush_hot_path|criterion' crates tests Cargo.toml; then
  echo "the modeled serving benches and criterion suites are gone: speed is benchmark/'s, correctness is tests/'"; exit 1
fi

echo "==> one flush-time depth scheme, DyNet-sim's (the runtime schedules InlineDepth or Agenda; the auto-scheduler always pads)"
if grep -rnE 'DynamicDepth|plan_dynamic_depth|tuned_batch|local_padding' crates tests; then
  echo "DyNet's depth scheduler lives in acrobat_baselines::dynet alone, and Schedule has no unread tuning fields"; exit 1
fi

echo "==> one batched launch (DyNet-sim runs its vendor kernels through codegen's run_batched_kernel_with; no second executor in acrobat_tensor)"
if grep -rnE 'run_batched_prim|BatchArg|BatchStats|tensor::batch|fn run_prim\b|\brun_prim\(' crates tests; then
  echo "acrobat_tensor::batch is gone: every batched launch is prepare -> execute -> finish in acrobat_codegen::exec"; exit 1
fi

echo "==> one transcendental implementation (exp/tanh/sigmoid are acrobat_tensor::ops::transcendental; no libm call in a kernel)"
libm_calls=$(for f in $(find crates/tensor/src crates/codegen/src crates/baselines/src -name '*.rs'); do
  sed -n '1,/^mod tests {/p' "$f" | grep -nE '\.(exp|tanh)\(\)|f32::(exp|tanh)\b' | sed "s|^|$f:|" || true
done)
if [ -n "$libm_calls" ]; then
  echo "$libm_calls"
  echo "f32 exp/tanh outside tests go through acrobat_tensor::ops::transcendental, the one implementation every executor shares"; exit 1
fi

echo "==> fused multiply-add only in the matmul (the exp/tanh/sigmoid ulp bounds were proved for separately rounded steps)"
fused=$(for f in $(find crates/tensor/src crates/codegen/src crates/baselines/src -name '*.rs' ! -path crates/tensor/src/ops/matmul.rs); do
  sed -n '1,/^mod tests {/p' "$f" | grep -nE 'mul_add|fmadd|target_feature.*\bfma\b' | grep -vE '^[0-9]+:\s*//' | sed "s|^|$f:|" || true
done)
if [ -n "$fused" ]; then
  echo "$fused"
  echo "only acrobat_tensor::ops::matmul fuses a multiply and an add; every other kernel rounds each step"; exit 1
fi

echo "==> a warm request repeats no setup (split ranges go to parked helpers, reset keeps the DFG's buffers, alloc does not zero-fill)"
if grep -nE 'thread::(scope|spawn)' crates/codegen/src/backend.rs; then
  echo "backend.rs hands split ranges to the parked helpers of backend/helpers.rs: no launch spawns a thread"; exit 1
fi
reset_body=$(sed -n '/    pub fn reset(&mut self) {/,/^    }/p' crates/runtime/src/context.rs)
alloc_body=$(sed -n '/    pub fn alloc(&mut self, shape: &Shape)/,/^    }/p' crates/tensor/src/arena.rs)
if [ -z "$reset_body" ] || [ -z "$alloc_body" ]; then
  echo "ExecutionContext::reset or DeviceMem::alloc moved: point these guards at them"; exit 1
fi
if grep -n 'Dfg::new()' <<<"$reset_body"; then
  echo "ExecutionContext::reset calls Dfg::clear, which keeps the capacity of every DFG buffer"; exit 1
fi
if grep -n 'fill(0\.0)' <<<"$alloc_body"; then
  echo "DeviceMem::alloc does not zero-fill: every writer overwrites its whole reservation (debug builds poison it)"; exit 1
fi

echo "==> weights stay put (a run takes a bound Params, which a pooled context keeps resident; no per-request weight upload)"
if grep -rnE -A4 'pub fn run[a-z_]*(<[^>]*>)?\(' crates/core/src crates/vm/src | grep -E '&BTreeMap<String, Tensor>'; then
  echo "Model::run*/Executable::run* take &Params: an identity is what lets a context keep the weights resident"; exit 1
fi
if grep -nE -A8 'ParamKind::Model' crates/vm/src/driver.rs | grep -E 'upload(_batched)?\('; then
  echo "the driver binds weights with ExecutionContext::bind_params, which uploads only when the Params changes"; exit 1
fi
if ! grep -q 'bind_params(' crates/vm/src/driver.rs; then
  echo "driver.rs no longer calls bind_params: point this guard at where weights are bound"; exit 1
fi

echo "==> one engine per session, one pool per request (PGO re-tunes through &mut between runs; a context and its AOT scratch pool as one pair)"
if grep -rnE 'RwLock<Arc<Engine>>|swap_engine|ContextPool|struct AotBackend|Mutex<Vec<Scratch>>' crates tests; then
  echo "Session owns a plain Arc<Engine> that Session::retune replaces through &mut, and one idle list of (ExecutionContext, Scratch) pairs"; exit 1
fi
if sed -n '1,/^mod tests {/p' crates/vm/src/session.rs | grep -n 'ptr_eq'; then
  echo "the pool never compares engines: a re-tune empties it, so every pooled context was built against the session's engine"; exit 1
fi

echo "==> the maps probed per DFG node or per flush hash with FoldHasher (no SipHash on the request path)"
if grep -nE '\bHashMap\s*(<|::(new|with_capacity)\b)|RandomState|DefaultHasher' \
    crates/runtime/src/dfg.rs crates/runtime/src/plan_cache.rs | grep -v 'FoldBuildHasher'; then
  echo "every HashMap in dfg.rs and plan_cache.rs names FoldBuildHasher (acrobat_runtime::hash) as its hasher"; exit 1
fi

echo "==> no new crate (both lock files list only the workspace's packages and its shims)"
known_packages=' acrobat-analysis acrobat-baselines acrobat-bench acrobat-benchmark acrobat-codegen acrobat-core acrobat-ir acrobat-models acrobat-runtime acrobat-tensor acrobat-vm parking_lot proptest serde serde_derive '
for lock in Cargo.lock benchmark/Cargo.lock; do
  for name in $(sed -n 's/^name = "\(.*\)"$/\1/p' "$lock"); do
    case "$known_packages" in
      *" $name "*) ;;
      *) echo "$lock gained the package $name: write it in-repo, as acrobat_runtime::hash is"; exit 1 ;;
    esac
  done
done

echo "==> paper artifacts regenerate byte-identical (table4, table5, table8, table9 (the PGO re-tune path), fig5 vs bench_results/)"
for artifact in table4 table5 table8 table9 fig5; do
  cargo run --release -q -p acrobat-bench --bin "$artifact" \
    | diff - "bench_results/$artifact.txt" \
    || { echo "$artifact no longer regenerates bench_results/$artifact.txt"; exit 1; }
done

echo "==> benchmark unit tests"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> benchmark smoke (tree_kernel, 2 s: split launches pass the digest + DyNet-baseline gate)"
bench_line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload tree_kernel --seed 1 --seconds 2 --trace 0 | tail -n 1)
if ! grep -q '"correct": true' <<<"$bench_line" || ! grep -q '"failed": 0' <<<"$bench_line"; then
  echo "benchmark smoke failed: $bench_line"; exit 1
fi

echo "==> benchmark smoke (birnn_serve2, 2 s: two concurrent clients, each run a group of one, under the plan cache)"
bench_line=$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  --workload birnn_serve2 --seed 1 --seconds 2 --trace 0 | tail -n 1)
if ! grep -q '"correct": true' <<<"$bench_line" || ! grep -q '"failed": 0' <<<"$bench_line"; then
  echo "benchmark smoke failed: $bench_line"; exit 1
fi

echo "All checks passed."
