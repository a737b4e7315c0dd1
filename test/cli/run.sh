#!/bin/sh
# Replays every single-process mmd_engine invocation of the CI smoke
# steps and prints each run's exit status and output, with wall-clock
# figures masked the way the CI batch smoke masks them: lines carrying
# throughput, latency or seconds are dropped (and the pool_* rows,
# which follow the domain count), runs of spaces are
# squeezed, and any remaining "<number>s" duration reads "Ts".
#
# Usage: sh run.sh BIN_DIR   (BIN_DIR holds mmd_gen.exe, mmd_engine.exe)
set -u
bin=$(cd "$1" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 1

mask() {
  grep -vE 'deltas/s|latency|seconds|^pool_|^[- ]+$' | tr -s ' ' |
    sed -E 's/[0-9][0-9.e+-]*s([ ,;)]|$)/Ts\1/g'
}

run() {
  echo "\$ mmd_engine $*"
  "$bin/mmd_engine.exe" "$@" > out.txt 2>&1
  echo "[exit $?]"
  mask < out.txt
}

"$bin/mmd_gen.exe" --streams 40 --users 60 -m 2 inst.mmd > /dev/null

# Observability smoke.
run inst.mmd --gen-deltas 500 --trace-out trace.jsonl --metrics-out metrics.prom --stats
# Certificate smoke, both engines.
run inst.mmd --gen-deltas 300 --seed 7 --certify --metrics-out cert.prom
run inst.mmd --gen-deltas 300 --seed 7 --certify --shards 2
# Plain replay; lease hand-over on both transports; primary kill.
run inst.mmd --gen-deltas 400 --seed 7
for t in queue socket; do
  run inst.mmd --gen-deltas 400 --seed 7 --replicas 2 --hand-over-at 200 \
    --replica-transport $t
done
run inst.mmd --gen-deltas 400 --seed 7 --replicas 2 --kill-primary-at 200
# Sharded at 1 and 2 shards.
run inst.mmd --gen-deltas 400 --seed 7 --stats
run inst.mmd --gen-deltas 400 --seed 7 --stats --shards 1
run inst.mmd --gen-deltas 400 --seed 7 --stats --shards 2
# Batched replay, then --wal-dir crash + resume over WAL and plain logs.
run inst.mmd --gen-deltas 400 --seed 7 --wal-out churn.wal --deltas-out churn.log
run inst.mmd -d churn.wal --stats
run inst.mmd -d churn.wal --stats --batch 64
run inst.mmd -d churn.wal --wal-dir wd --checkpoint-every 100 --crash-after 250
run inst.mmd -d churn.wal --wal-dir wd --checkpoint-every 100 --batch 64
run inst.mmd -d churn.log --wal-dir wdp --checkpoint-every 100 --crash-after 250
run inst.mmd -d churn.log --wal-dir wdp --checkpoint-every 100
