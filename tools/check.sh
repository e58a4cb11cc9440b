#!/bin/sh
# Tier-1 verification gate (referenced from ROADMAP.md): everything a PR
# must keep green. Run from the repository root.
#
# `dune build @fmt` is NOT part of the gate: the toolchain image ships
# no ocamlformat binary, and dune's own dune-file formatting reports
# diffs for seed files this repo never reformatted. Revisit if
# ocamlformat is added to the image.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build @all"
dune build @all

echo "== module-scope state: no top-level lazy/ref/table/atomic/mutex/array in lib/"
# Pool tasks run on any domain, so library state at module scope is a
# data race (a lazy forced by two domains raises CamlinternalLazy.Undefined).
# Scans lib/ and the emitted stubs, including the two-line
# `let x =\n  lazy` form. The allowlist holds "file:name" entries; keep it empty.
python3 - <<'EOF'
import glob, re, sys
allow = set()
pat = re.compile(r"^let\s+([a-z_][\w']*)\s*(?::[^=]*)?=\s*"
                 r"(lazy|ref|Hashtbl\.create|Atomic\.make|Mutex\.create|Array\.make)\b",
                 re.M)
files = sorted(glob.glob("lib/**/*.ml", recursive=True))
files += sorted(glob.glob("_build/default/lib/genstubs/sg_gen_*.ml"))
assert any("sg_gen_" in f for f in files), "emitted stubs not built"
hits = []
for f in files:
    s = open(f).read()
    for m in pat.finditer(s):
        if f + ":" + m.group(1) not in allow:
            line = s.count("\n", 0, m.start()) + 1
            hits.append("%s:%d: let %s = %s" % (f, line, m.group(1), m.group(2)))
print("\n".join(hits))
sys.exit(1 if hits else 0)
EOF

echo "== JSON lives in one module: no hand-rolled JSON outside lib/util/json.ml"
# Every JSON document is built as a Sg_util.Json.t and printed or parsed
# there. A '"' char literal (escaping or parsing by hand) or a \"key\":
# string literal (an object pasted together with printf) anywhere else
# in lib/ or bin/ is a second codec. The allowlist holds file paths;
# keep it empty.
python3 - <<'EOF'
import glob, re, sys
allow = set()
pat = re.compile(r"""'"'|\\"[A-Za-z_][\w-]*\\":""")
files = sorted(glob.glob("lib/**/*.ml", recursive=True)) + sorted(glob.glob("bin/*.ml"))
hits = []
for f in files:
    if f == "lib/util/json.ml" or f in allow:
        continue
    for n, line in enumerate(open(f), 1):
        m = pat.search(line)
        if m:
            hits.append("%s:%d: %s" % (f, n, m.group(0)))
print("\n".join(hits))
sys.exit(1 if hits else 0)
EOF

echo "== dune runtest"
dune runtest

echo "== perf smoke: bench sched --quick writes valid BENCH_sched.json"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
./_build/default/bench/main.exe sched --quick --out "$tmpdir/BENCH_sched.json" > /dev/null
python3 - "$tmpdir/BENCH_sched.json" <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
assert b["bench"] == "sched"
for k in ("scan", "indexed"):
    assert b[k]["wall_s"] > 0 and b[k]["dispatch_per_s"] > 0
assert b["speedup_indexed_vs_scan"] > 0
EOF

echo "== perf smoke: bench campaign-scale --quick writes valid BENCH_campaign.json"
./_build/default/bench/main.exe campaign-scale --quick \
    --out "$tmpdir/BENCH_campaign.json" > /dev/null
python3 - "$tmpdir/BENCH_campaign.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["bench"] == "campaign-scale" and r["quick"] is True
assert r["services"] == 6
assert r["injections_total"] == r["injections_per_service"] * 6
assert r["host_cores"] >= 1
assert [row["j"] for row in r["jobs"]] == [1, 2, 4]
for row in r["jobs"]:
    assert row["wall_s"] > 0 and row["injections_per_s"] > 0
assert r["verify_bounds"]["violations"] == 0
assert r["verify_bounds"]["complete"] >= 1
EOF

echo "== perf gate: fresh campaign throughput against the committed baseline"
python3 tools/bench_diff.py BENCH_campaign.json "$tmpdir/BENCH_campaign.json"

echo "== perf smoke: sgtrace check passes on a -j 2 campaign stream"
./_build/default/bin/campaign.exe --iface lock -n 40 --seed 3 -j 2 \
    --trace "$tmpdir/trace_j2.jsonl" > /dev/null 2>&1
./_build/default/bin/sgtrace.exe check --incomplete "$tmpdir/trace_j2.jsonl" > /dev/null

echo "== profile smoke: sgtrace profile --json validates over the campaign stream"
./_build/default/bin/sgtrace.exe profile "$tmpdir/trace_j2.jsonl" > /dev/null
./_build/default/bin/sgtrace.exe profile --json "$tmpdir/trace_j2.jsonl" \
    > "$tmpdir/profile.json"
python3 - "$tmpdir/profile.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 1
assert r["episodes_total"] >= 1 and r["episodes_complete"] >= 1
assert r["episodes_total"] == len(r["episodes"])
for e in r["episodes"]:
    p = e["phases"]
    for k in ("detect_reboot_ns", "reboot_walks_ns", "walks_access_ns"):
        assert p[k] >= 0, (e["seq"], k)
    assert e["span_ns"] >= 0 and e["critical_path_ns"] >= 0
    assert sum(p.values()) <= e["span_ns"]
    if e["complete"]:
        assert sum(p.values()) == e["span_ns"]
for a in r["attribution"]:
    assert a["reboot_ns"] >= 0 and a["walk_ns"] >= 0 and a["span_ns"] >= 0
    assert a["total_ns"] == a["reboot_ns"] + a["walk_ns"] + a["span_ns"]
EOF

echo "== determinism: -j 1, -j 2 and -j 4 campaigns profile identically"
# every run below is a fresh (cold) process: nothing is warmed before
# the pool fans out
./_build/default/bin/campaign.exe --iface lock -n 40 --seed 3 -j 1 \
    --trace "$tmpdir/trace_j1.jsonl" > /dev/null 2>&1
./_build/default/bin/campaign.exe --iface lock -n 40 --seed 3 -j 4 \
    --trace "$tmpdir/trace_j4.jsonl" > /dev/null 2>&1
for j in 1 2 4; do
    ./_build/default/bin/sgtrace.exe profile --json "$tmpdir/trace_j$j.jsonl" \
        > "$tmpdir/profile_j$j.json"
done
python3 - "$tmpdir"/profile_j1.json "$tmpdir"/profile_j2.json \
    "$tmpdir"/profile_j4.json <<'EOF'
import json, sys
ps = [json.load(open(f)) for f in sys.argv[1:]]
for p in ps:
    p.pop("source", None)
assert ps[0] == ps[1], "episode profiles differ between -j 1 and -j 2"
assert ps[0] == ps[2], "episode profiles differ between -j 1 and -j 4"
EOF

echo "== lint gate: sgc lint over idl/ and the builtins"
# exits 1 on any error-severity finding, 2 on compile errors (set -e)
./_build/default/bin/sgc.exe lint --builtins idl/*.sgidl > /dev/null
./_build/default/bin/sgc.exe lint --json --builtins idl/*.sgidl \
    > "$tmpdir/lint.json"
python3 - "$tmpdir/lint.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 2 and r["schema"] == "sgc-lint"
assert r["errors"] == 0 and r["warnings"] == 0
for d in r["diagnostics"]:
    assert d["code"].startswith("SG") and d["severity"] == "info"
    assert d["file"] and d["line"] >= 1 and d["col"] >= 1
EOF

echo "== error paths: malformed input exits 2 with one diagnosis"
# a trace line whose integer does not parse is a parse error (exit 2),
# not an uncaught exception
printf '{"seq":-,"at_ns":0,"tid":0,"kind":"note","name":"a","data":"b"}\n' \
    > "$tmpdir/bad_seq.jsonl"
rc=0
./_build/default/bin/sgtrace.exe check "$tmpdir/bad_seq.jsonl" \
    > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 2 ]
# a spec that does not compile: every report command prints exactly one
# JSON object (the lint report) with --json and exits 2
for c in lint bound taint race; do
    rc=0
    ./_build/default/bin/sgc.exe $c --json test/fixtures/sg901_parse.sgidl \
        > "$tmpdir/err_$c.json" || rc=$?
    [ "$rc" -eq 2 ]
    python3 - "$tmpdir/err_$c.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "sgc-lint" and r["errors"] == 1
assert [d["code"] for d in r["diagnostics"]] == ["SG901"]
EOF
done

echo "== bound gate: sgc bound over the six builtins"
# exits 1 if any (crashed, client) pair is unbounded
./_build/default/bin/sgc.exe bound --builtins > /dev/null
./_build/default/bin/sgc.exe bound --json --builtins > "$tmpdir/bound.json"
python3 - "$tmpdir/bound.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 1 and r["schema"] == "sgc-bound"
assert len(r["services"]) == 6
for s in r["services"]:
    assert s["image_kb"] > 0 and s["reboot_ns"] > 0
    assert s["cap"] is not None and s["direct_ns"] is not None
assert len(r["pairs"]) == 36
for p in r["pairs"]:
    assert p["kind"] in ("direct", "transitive", "unrelated")
    assert p["bound_ns"] is not None and p["bound_ns"] > 0
EOF

echo "== bound cross-validation: no stitched episode exceeds the static bound"
# --verify-bounds recomputes the Wcr bound and exits 1 on any violation;
# run at both -j 1 and -j 2 (speculative chunks must not change spans)
./_build/default/bin/campaign.exe --iface sched -n 120 --seed 7 -j 1 \
    --verify-bounds > "$tmpdir/vb1.out" 2>&1
./_build/default/bin/campaign.exe --iface fs -n 120 --seed 7 -j 2 \
    --verify-bounds > "$tmpdir/vb2.out" 2>&1
grep -q "violations=0" "$tmpdir/vb1.out"
grep -q "violations=0" "$tmpdir/vb2.out"

echo "== dst gate: fixed-seed campaign over all six services passes clean"
./_build/default/bin/dst.exe run --seed 1 --count 10 -q > "$tmpdir/dst_run.out"
grep -q "0 failure(s), services=6" "$tmpdir/dst_run.out"

echo "== dst gate: --jobs campaign output byte-identical to the sequential run"
./_build/default/bin/dst.exe run --seed 1 --count 10 -j 1 > "$tmpdir/dst_run_j1.out"
./_build/default/bin/dst.exe run --seed 1 --count 10 -j 4 > "$tmpdir/dst_run_j4.out"
cmp "$tmpdir/dst_run_j1.out" "$tmpdir/dst_run_j4.out"

echo "== dst gate: a canned failing plan shrinks to a byte-identical repro at -j 1, 2 and 4"
# the mutant run exits 1 (failure found) by contract; capture rc under set -e
rc=0
./_build/default/bin/dst.exe run --mutant mm/drop-terminal/0 --count 5 \
    --no-shrink --out "$tmpdir/dst_fail.json" -q > /dev/null || rc=$?
[ "$rc" -eq 1 ]
./_build/default/bin/dst.exe shrink --artifact "$tmpdir/dst_fail.json" \
    --out "$tmpdir/dst_min_j1.json" -j 1 > /dev/null
for j in 2 4; do
    ./_build/default/bin/dst.exe shrink --artifact "$tmpdir/dst_fail.json" \
        --out "$tmpdir/dst_min_j$j.json" -j $j > /dev/null
    cmp "$tmpdir/dst_min_j1.json" "$tmpdir/dst_min_j$j.json"
done
./_build/default/bin/dst.exe replay "$tmpdir/dst_min_j1.json" > /dev/null
# the same hunt at -j 2 must find the same failing seed and artifact
rc=0
./_build/default/bin/dst.exe run --mutant mm/drop-terminal/0 --count 5 \
    --no-shrink --out "$tmpdir/dst_fail_j2.json" -q -j 2 > /dev/null || rc=$?
[ "$rc" -eq 1 ]
cmp "$tmpdir/dst_fail.json" "$tmpdir/dst_fail_j2.json"

echo "== taint gate: sgc taint over the six builtins is finding-free"
# exits 1 on any SG016-SG019 finding, 2 on compile errors
./_build/default/bin/sgc.exe taint --builtins > /dev/null
./_build/default/bin/sgc.exe taint --json --builtins > "$tmpdir/taint.json"
python3 - "$tmpdir/taint.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 1 and r["schema"] == "sgc-taint"
assert r["errors"] == 0 and r["diagnostics"] == []
assert r["edges"] == 23 and r["fields"] == 118
assert r["masked"] + r["detected"] + r["silent"] == r["fields"]
assert len(r["entries"]) == r["fields"]
for e in r["entries"]:
    assert e["verdict"] in ("masked", "detected", "silent")
    assert e["iface"] and e["fn"] and e["field"] and e["reason"]
EOF

echo "== adversary gate: pinned campaign matches the static verdicts, -j independent"
# every silent verdict gets a witness, no masked/detected edge fails
# silently (exit 1 on any mismatch), and the full report is
# byte-identical across job counts
./_build/default/bin/dst.exe adversary --seed 1000 --per-entry 18 -j 1 \
    > "$tmpdir/adv_j1.out"
for j in 2 4; do
    ./_build/default/bin/dst.exe adversary --seed 1000 --per-entry 18 -j $j \
        > "$tmpdir/adv_j$j.out"
    cmp "$tmpdir/adv_j1.out" "$tmpdir/adv_j$j.out"
done
grep -q "118 entr(ies), 18 witness(es), 0 mismatch(es)" "$tmpdir/adv_j1.out"

echo "== race gate: sgc race over the six builtins is finding-free"
# exits 1 on any SG021-SG025 finding, 2 on compile errors
./_build/default/bin/sgc.exe race --builtins > /dev/null
./_build/default/bin/sgc.exe race --json --builtins > "$tmpdir/race.json"
python3 - "$tmpdir/race.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["version"] == 1 and r["schema"] == "sgc-race"
assert r["errors"] == 0 and r["diagnostics"] == []
assert r["pairs"] == 138 and len(r["entries"]) == r["pairs"]
assert (r["isolated"], r["serialized"], r["racy"]) == (113, 20, 5)
assert len(r["walks"]) == 6
for e in r["entries"]:
    assert e["verdict"] in ("isolated", "serialized", "racy")
    assert e["walker"] and e["iface"] and e["fn"] and e["phase"] and e["reason"]
EOF

echo "== race gate: pinned recovery-racing campaign matches the verdicts, -j independent"
# every racy verdict is discharged (silent in-walk witness or sustained
# zero-detection acceptance), no isolated/serialized pair goes silent
# (exit 1 on any mismatch), and the report is byte-identical across -j
./_build/default/bin/dst.exe race --seed 1100 --per-entry 6 -j 1 \
    > "$tmpdir/race_j1.out"
for j in 2 4; do
    ./_build/default/bin/dst.exe race --seed 1100 --per-entry 6 -j $j \
        > "$tmpdir/race_j$j.out"
    cmp "$tmpdir/race_j1.out" "$tmpdir/race_j$j.out"
done
grep -q "race: 138 pair(s), 5 racy, 3 witness(es), 0 mismatch(es)" \
    "$tmpdir/race_j1.out"

echo "== webbench gate: open-loop sg-webbench report validates"
./_build/default/bin/webbench.exe open-loop --requests 2000 --seed 42 \
    --fault-period-ms 0,3 --json -j 1 > "$tmpdir/webbench_j1.json"
python3 - "$tmpdir/webbench_j1.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["schema"] == "sg-webbench" and r["version"] == 1
assert r["mode"] == "superglue" and r["requests"] == 2000
assert [run["fault_period_ms"] for run in r["runs"]] == [0, 3]
for run in r["runs"]:
    j = run["join"]
    assert (j["offered"] == j["served"] + j["errors"] + j["dropped"]
            + j["failed"] == r["requests"])
    for pop in ("all", "clean", "shadowed"):
        lat = j["latency"][pop]
        if lat["n"]:
            assert (lat["min_ns"] <= lat["p50_ns"] <= lat["p99_ns"]
                    <= lat["p999_ns"] <= lat["max_ns"])
clean = r["runs"][0]["join"]
assert clean["episodes_total"] == 0 and clean["latency"]["shadowed"]["n"] == 0
faulted = r["runs"][1]["join"]
assert faulted["episodes_total"] >= 1
assert faulted["latency"]["shadowed"]["n"] >= 1
assert len(faulted["episodes"]) == faulted["episodes_total"]
assert any(e["requests"] > 0 for e in faulted["episodes"])
EOF

echo "== webbench gate: open-loop report byte-identical at -j 1, 2 (10 cold runs) and 4"
# a cache shared across domains crashed about 1 in 5 cold -j 2 runs
# (CamlinternalLazy.Undefined); 10 fresh processes catch that ~89% of the time
for j in 2 2 2 2 2 2 2 2 2 2 4; do
    ./_build/default/bin/webbench.exe open-loop --requests 2000 --seed 42 \
        --fault-period-ms 0,3 --json -j $j > "$tmpdir/webbench_jx.json"
    cmp "$tmpdir/webbench_j1.json" "$tmpdir/webbench_jx.json"
done

echo "== perf smoke: bench web-tail --quick writes valid BENCH_web.json"
./_build/default/bench/main.exe web-tail --quick \
    --out "$tmpdir/BENCH_web.json" > /dev/null
python3 - "$tmpdir/BENCH_web.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["bench"] == "web-tail" and r["quick"] is True
assert r["mode"] == "superglue" and r["requests"] >= 1
assert [row["j"] for row in r["jobs"]] == [1, 2, 4]
for row in r["jobs"]:
    assert row["wall_s"] > 0 and row["req_per_s"] > 0
assert [row["fault_period_ms"] for row in r["rows"]] == [0, 3, 1]
EOF

echo "== perf gate: fresh web-tail throughput against the committed baseline"
python3 tools/bench_diff.py BENCH_web.json "$tmpdir/BENCH_web.json"

echo "== tier-1 gate OK"
