#!/usr/bin/env bash
# Workspace Rust line count: every tracked `.rs` file outside `vendor/`
# and outside the reference benchmark package
# (crates/bench/src/bin/benchmark, a Cargo package of its own), the
# count ROADMAP.md's "net lines" figures use. Prints the total, then
# the five largest of those files.
#
#   scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

git ls-files -z -- '*.rs' ':!:vendor/' ':!:crates/bench/src/bin/benchmark/' |
    xargs -0 wc -l | sort -rn | awk '
        $2 == "total" { next }
        { total += $1; files += 1; if (files <= 5) top[files] = $0 }
        END {
            printf "workspace Rust: %d lines in %d files\n", total, files
            for (i = 1; i <= 5 && i <= files; i++) print top[i]
        }'
