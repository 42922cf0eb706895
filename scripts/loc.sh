#!/usr/bin/env bash
# Counts the non-test source lines of workspace crates: for every `.rs`
# file under a crate's `src/`, the lines above the file's first top-level
# `#[cfg(test)]` (the whole file when it has none). Prints one line per
# crate, with that count in total and without blank and `//` comment
# lines, then a total over the crates listed. These are the counts the
# ROADMAP's net-lines gates are stated in.
#
#   scripts/loc.sh [crate…]     crate = a directory under crates/ (default: all)
#
# Example: `scripts/loc.sh exec` prints `exec  <lines>  <code lines>`.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- $(ls crates)
fi

count() {
    # Lines above the first top-level #[cfg(test)], then the same lines
    # without the blank ones and the ones that are only a `//` comment.
    awk '
        FNR == 1 { inside = 1 }
        /^#\[cfg\(test\)\]/ { inside = 0 }
        inside {
            all++
            if ($0 !~ /^[[:space:]]*$/ && $0 !~ /^[[:space:]]*\/\//) code++
        }
        END { printf "%d %d\n", all, code }
    ' "$@"
}

total_all=0
total_code=0
printf '%-12s %8s %8s\n' crate lines code
for crate in "$@"; do
    dir="crates/${crate#crates/}"
    [ -d "$dir/src" ] || { echo "loc.sh: no crate at $dir" >&2; exit 1; }
    mapfile -d '' files < <(find "$dir/src" -name '*.rs' -print0 | sort -z)
    read -r all code < <(count "${files[@]}")
    printf '%-12s %8d %8d\n' "${crate#crates/}" "$all" "$code"
    total_all=$((total_all + all))
    total_code=$((total_code + code))
done
printf '%-12s %8d %8d\n' total "$total_all" "$total_code"
