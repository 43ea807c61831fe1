#!/usr/bin/env bash
# End-to-end smoke test for `crp serve` / `crp client`.
#
# Exercises the serving front-end the way CI can't from unit tests
# alone: real OS processes talking over real sockets.
#
#   1. bit-identity   — the same explain workload against a windowed
#                       server (concurrent clients, batched into
#                       planner windows) and a per-request server
#                       (--window-max 1) must print byte-identical
#                       results.
#   2. candidates     — the stage-1 candidate ids a running server
#                       answers (`client --candidates`) must equal the
#                       ones computed offline from the CSV by Lemma 2's
#                       definition.
#   3. group commit   — pipelined updates ack and the stats verb
#                       reports updates/update_batches.
#   4. admission shed — a best-effort client hitting a saturated
#                       queue gets a typed Busy with retry-after,
#                       while the in-flight interactive request
#                       completes normally.
#   5. check ceiling  — on the full NBA data, a batch explain of a
#                       hard non-answer stops at the flat check
#                       ceiling with a typed Partial within 10 s, and
#                       an interactive explain sent after it still
#                       gets a reply.
#   6. graceful exit  — every server drains and exits 0 on the
#                       shutdown verb, printing its summary line.
#
# All server logs and client transcripts land in $SMOKE_OUT (default
# smoke_out/) so CI can upload them as an artifact.

set -euo pipefail

BIN=${CRP_BIN:-target/release/crp}
OUT=${SMOKE_OUT:-smoke_out}
QUERY="1500,600,500,300"

if [[ ! -x "$BIN" ]]; then
  echo "error: $BIN not found or not executable (build with: cargo build --release)" >&2
  exit 1
fi
mkdir -p "$OUT"

SERVER_PIDS=()
cleanup() {
  for pid in "${SERVER_PIDS[@]:-}"; do
    kill "$pid" 2>/dev/null || true
  done
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# start_server LOGFILE ARGS... — spawns `crp serve`, waits for the
# "serving on HOST:PORT" announce line, and leaves the port in $PORT.
# Not a command substitution: the pid must land in the parent shell's
# SERVER_PIDS so the final `wait` really reaps every server.
start_server() {
  local log=$1
  shift
  "$BIN" serve "$@" >"$log" 2>&1 &
  SERVER_PIDS+=($!)
  for _ in $(seq 1 100); do
    if grep -q '^serving on ' "$log" 2>/dev/null; then
      break
    fi
    sleep 0.1
  done
  grep -q '^serving on ' "$log" || fail "server never announced its address ($log)"
  local addr
  addr=$(grep -m1 '^serving on ' "$log" | awk '{print $3}')
  PORT=${addr##*:}
}

# strip_session FILE — drop the lines that legitimately differ
# between servers (address/port in the connect banner).
strip_session() {
  grep -v '^connected to ' "$1"
}

# ids_of FILE — the candidate ids of a `client --candidates` transcript
# (printed as `#ID`), one bare id per line, sorted.
ids_of() {
  grep -m1 'stage-1 candidate' "$1" | sed 's/.*\[\(.*\)\]/\1/' | tr ',' '\n' \
    | tr -d ' #' | sed '/^$/d' | sort
}

# offline_candidates AN — the stage-1 candidates of AN computed from
# the season CSV alone, by Lemma 2's definition: every other player
# with a season that dynamically dominates $QUERY w.r.t. some season
# of AN (positive dominance probability). One id per line, sorted.
offline_candidates() {
  awk -F, -v an="$1" -v query="$QUERY" '
    /^#/ || NF < 3 { next }
    { n++; id[n] = $1; dim = NF - 2; for (k = 1; k <= dim; k++) x[n, k] = $(k + 2) }
    END {
      split(query, q, ",")
      for (i = 1; i <= n; i++) {
        if (id[i] != an) continue
        for (j = 1; j <= n; j++) {
          if (id[j] == an) continue
          ok = 1; strict = 0
          for (k = 1; k <= dim; k++) {
            dp = x[j, k] - x[i, k]; if (dp < 0) dp = -dp
            dq = q[k] - x[i, k]; if (dq < 0) dq = -dq
            if (dp > dq) { ok = 0; break }
            if (dp < dq) strict = 1
          }
          if (ok && strict) hit[id[j]] = 1
        }
      }
      for (h in hit) print h
    }' "$DATA" | sort
}

echo "== generate dataset =="
"$BIN" generate --kind nba --out "$OUT/nba_full.csv"
# A small slice keeps the contingency searches cheap; truncating at a
# line boundary just leaves the last player with fewer seasons.
head -n 151 "$OUT/nba_full.csv" >"$OUT/nba.csv"
DATA="$OUT/nba.csv"
COMMON=(--data "$DATA" --schema seasons --alpha 0.5 --addr 127.0.0.1:0)

echo "== start servers =="
# Windowed: a generous gather deadline so the concurrent clients below
# really do land in shared planner windows.
start_server "$OUT/server_windowed.log" "${COMMON[@]}" --window-ms 100
PW=$PORT
# Per-request: singleton windows AND singleton write batches.
start_server "$OUT/server_per_request.log" "${COMMON[@]}" --window-max 1
PP=$PORT
echo "windowed on :$PW, per-request on :$PP"

echo "== 1. bit-identity: windowed (concurrent) vs per-request (serial) =="
# Batch-class clients: unlimited plan limits, so every task runs to
# completion — Partial results carry progress counters that
# legitimately differ between serving modes, completed results must
# not differ by a byte.
IDS=(3 7 11 "3,7,11" all)
client_pids=()
for i in "${!IDS[@]}"; do
  "$BIN" client --addr "127.0.0.1:$PW" --class batch --objects "${IDS[$i]}" \
    --query "$QUERY" --alphas 0.3,0.5 >"$OUT/windowed_$i.txt" 2>&1 &
  client_pids+=($!)
done
for pid in "${client_pids[@]}"; do
  wait "$pid" || fail "windowed client exited nonzero"
done
for i in "${!IDS[@]}"; do
  "$BIN" client --addr "127.0.0.1:$PP" --class batch --objects "${IDS[$i]}" \
    --query "$QUERY" --alphas 0.3,0.5 >"$OUT/per_request_$i.txt" 2>&1 \
    || fail "per-request client exited nonzero"
  diff <(strip_session "$OUT/windowed_$i.txt") \
       <(strip_session "$OUT/per_request_$i.txt") \
    || fail "windowed vs per-request results differ for --objects ${IDS[$i]}"
done
echo "ok: ${#IDS[@]} workloads bit-identical across serving modes"

echo "== 2. candidates: running server vs offline Lemma 2 =="
total=0
for an in 2 5 9; do
  "$BIN" client --addr "127.0.0.1:$PW" --candidates "$an" --query "$QUERY" \
    >"$OUT/cand_$an.txt" 2>&1 || fail "candidates for $an"
  diff <(ids_of "$OUT/cand_$an.txt") <(offline_candidates "$an") \
    || fail "served candidates differ from the offline set for $an"
  total=$((total + $(ids_of "$OUT/cand_$an.txt" | wc -l)))
done
[[ $total -gt 0 ]] || fail "no candidates at all: the check compared nothing"
echo "ok: 3 served candidate sets equal the offline ones ($total ids)"

echo "== 3. group commit + stats verb =="
cat >"$OUT/inserts.txt" <<'EOF'
insert 9001 3300,1400,1600,1200
insert 9002 3400,1450,1650,1250
EOF
"$BIN" client --addr "127.0.0.1:$PW" --update "$OUT/inserts.txt" \
  >"$OUT/update.txt" 2>&1 || fail "update request"
grep -q 'applied 2 update(s)' "$OUT/update.txt" || fail "update was not acked"
"$BIN" client --addr "127.0.0.1:$PW" --stats >"$OUT/stats.txt" 2>&1 \
  || fail "stats request"
for key in windows requests dedup_pct shed updates update_batches p50_us p99_us; do
  grep -Eq "^ *$key [0-9]+$" "$OUT/stats.txt" || fail "stats verb missing $key"
done
# `updates` counts acked update requests; both ops of the one request
# rode a single group-committed publish.
grep -Eq '^ *updates 1$' "$OUT/stats.txt" || fail "stats should count 1 update request"
grep -Eq '^ *update_batches 1$' "$OUT/stats.txt" \
  || fail "one update request group-commits as one batch"
echo "ok: stats verb reports all counters; 1 update request, 1 publish"

echo "== 4. admission control: best-effort client is shed =="
# Tiny queue + a long gather deadline: the interactive explain below
# holds pending=1 for up to 3 s, so the best-effort client (shed
# threshold = queue_cap/2 = 1) must get a typed Busy.
start_server "$OUT/server_shed.log" "${COMMON[@]}" \
  --queue-cap 2 --window-ms 3000
PS=$PORT
"$BIN" client --addr "127.0.0.1:$PS" --objects 3 --query "$QUERY" \
  >"$OUT/shed_victim.txt" 2>&1 &
victim=$!
sleep 0.7
if "$BIN" client --addr "127.0.0.1:$PS" --class best-effort --objects 5 \
  --query "$QUERY" >"$OUT/shed_reply.txt" 2>&1; then
  fail "best-effort client should have been shed"
fi
grep -q 'retry after' "$OUT/shed_reply.txt" \
  || fail "shed reply carries no retry-after hint"
wait "$victim" || fail "the in-flight interactive request should still succeed"
"$BIN" client --addr "127.0.0.1:$PS" --stats >"$OUT/shed_stats.txt" 2>&1 \
  || fail "stats after shed"
grep -Eq '^ *shed 1$' "$OUT/shed_stats.txt" || fail "shed counter did not move"
echo "ok: best-effort shed with retry-after; interactive request completed"

echo "== 5. check ceiling: a hard batch explain stops, interactive still served =="
# Object 24 at this query is a deep non-answer whose pruned search
# spends its work in completion-bound checks; the flat 5,000,000-check
# ceiling every client class runs under must stop it, so it cannot
# hold the collector from the interactive request queued behind it.
start_server "$OUT/server_ceiling.log" --data "$OUT/nba_full.csv" --schema seasons \
  --alpha 0.5 --addr 127.0.0.1:0
PC=$PORT
HARD_QUERY="3500,1500,600,800"
timeout 10 "$BIN" client --addr "127.0.0.1:$PC" --class batch --objects 24 \
  --query "$HARD_QUERY" >"$OUT/ceiling_batch.txt" 2>&1 &
hard=$!
sleep 0.3
timeout 30 "$BIN" client --addr "127.0.0.1:$PC" --class interactive --objects 1000 \
  --query "$HARD_QUERY" >"$OUT/ceiling_interactive.txt" 2>&1 \
  || fail "the interactive explain behind the hard batch explain got no reply"
grep -q '^task #0: ' "$OUT/ceiling_interactive.txt" \
  || fail "the interactive reply carries no result"
wait "$hard" || fail "the hard batch explain did not reply within 10 s"
grep -q '^task #0: PARTIAL (checks)' "$OUT/ceiling_batch.txt" \
  || fail "the hard batch explain should stop at the check ceiling"
echo "ok: hard batch explain stopped at the check ceiling; interactive reply followed"

echo "== 6. graceful shutdown =="
for port in "$PW" "$PP" "$PS" "$PC"; do
  "$BIN" client --addr "127.0.0.1:$port" --shutdown >/dev/null 2>&1 \
    || fail "shutdown verb on :$port"
done
for pid in "${SERVER_PIDS[@]}"; do
  wait "$pid" || fail "a server exited nonzero"
done
SERVER_PIDS=()
for log in server_windowed server_per_request server_shed server_ceiling; do
  grep -q '^shutdown: ' "$OUT/$log.log" \
    || fail "$log did not print its drain summary"
done
echo "ok: all 4 servers drained and exited 0"

echo "serve smoke: PASS"
