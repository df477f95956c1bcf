#!/usr/bin/env bash
# The installed polarspec console script reproduces the golden reports and
# exit codes. Run from the repository root with polarspec on PATH:
#   bash ci/console_script.sh
set -euo pipefail

polarspec avg-spectrum --n 16 --k 8 --construction rm --round 4 | diff - tests/golden/avg_rm16_8.json
polarspec exact-spectrum --n 16 --k 8 --construction pw --transform random:3 --method scl:8 --format csv | diff - tests/golden/exact_pw16_8_scl8.csv
polarspec ensemble --n 8 --k 4 --construction pw --samples 3 --seed 5 | diff - tests/golden/ensemble_pw8_4.json
polarspec avg-spectrum --n 64 --k 16 --construction pw --round 9 --format csv | diff - tests/golden/avg_pw64_16.csv
polarspec exact-spectrum --n 16 --k 8 --construction pw --transform random:3 | diff - tests/golden/exact_pw16_8_brute.json
polarspec exact-spectrum --n 32 --k 12 --construction pw --transform random:3 --method scl:128 | diff - tests/golden/exact_pw32_12_scl128.json
polarspec ensemble --n 32 --k 12 --construction pw --samples 3 --seed 1 --format csv | diff - tests/golden/ensemble_pw32_12.csv
polarspec ensemble --n 32 --k 12 --construction pw --samples 3 --seed 2 --method scl:128 | diff - tests/golden/ensemble_pw32_12_scl128.json

# a recursion run loads none of numpy's code: the import-time log names every module imported
PYTHONPROFILEIMPORTTIME=1 polarspec avg-spectrum --n 16 --k 8 --construction rm 2>&1 >/dev/null | awk '/[|] +numpy/ {bad = 1} /[|] +polarspec[.]spectrum$/ {seen = 1} END {exit bad || !seen}'

# exit 2 for a bad flag value, 1 for a budget
rc=0; polarspec exact-spectrum --n 16 --k 8 --construction pw --transform pac:zz || rc=$?; test "$rc" = 2
rc=0; polarspec avg-spectrum --n 100 --construction file:/dev/null || rc=$?; test "$rc" = 2
rc=0; polarspec exact-spectrum --n 64 --k 30 --construction pw || rc=$?; test "$rc" = 1
# Monte Carlo runs its samples in one loop: --threads is not a flag
rc=0; polarspec ensemble --n 8 --k 4 --construction pw --samples 3 --threads 2 || rc=$?; test "$rc" = 2
