#!/usr/bin/env bash
# Prints the workspace's Rust line count: every line of every `*.rs` file
# under crates/, src/, tests/ and examples/ (vendor/ and perfbench/ are not
# counted).  CHANGES.md reports each change's "Net LoC" as this number
# before and after it.
#
# Usage: scripts/loc.sh

set -euo pipefail
cd "$(dirname "$0")/.."

find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l
