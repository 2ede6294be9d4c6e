#!/bin/sh
# Every workload, end-to-end then traced, each in its own process.
# usage: sh perfbench/run_all.sh [seed] [seconds]
set -e
seed=${1:-1}
seconds=${2:-30}
for workload in open100 batch corridor crowd; do
    for trace in 0 1; do
        echo "== $workload seed $seed trace $trace"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace "$trace"
    done
done
