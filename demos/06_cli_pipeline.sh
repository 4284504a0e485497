#!/usr/bin/env bash
# The five-stage command-line pipeline on a reduced domain.
#
# Every stage writes atomically and leaves a manifest.json with its
# config (seed included), each input's content fingerprint by role
# (scenario, checkpoint, predictions/<k>), the paths as typed, and a
# sha256 per output file. Each stage hashes exactly the input files it opens.
# Re-running a stage with the same inputs reproduces identical hashes.
set -euo pipefail

# a source checkout without the installed script runs the module instead
if ! command -v cyclone-pp >/dev/null; then
    cyclone-pp() { python3 -m cyclone_pp.cli "$@"; }
fi

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

echo "== generate: synthetic cyclone event (28x24 grid, 15 reports) =="
cyclone-pp generate --seed 7 --rows 28 --cols 24 --out scen

echo
echo "== augment: 15 originals -> 58 reports (interpolation + noise) =="
cyclone-pp augment --scenario scen --seed 0 --out scen_aug

echo
echo "== train: fit cnn-all for target report 8 =="
cyclone-pp train --scenario scen --variant cnn-all --target 8 --epochs 100 --out model8

echo
echo "== predict: post-process target 8 (never reads its observation) =="
cyclone-pp predict --checkpoint model8 --scenario scen --target 8 --out pred8

echo
echo "== evaluate: skill vs the members baseline, reliability, maps =="
cyclone-pp evaluate --predictions pred8 --scenario scen --out eval8

echo
echo "== artifacts =="
ls eval8
echo
head -3 eval8/skill_table.csv
echo "..."
head -4 eval8/crpss_summary.csv
