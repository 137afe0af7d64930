#!/usr/bin/env sh
# Fails if a crate reads or writes a Link outside pla-net's driver.
# pla_net::driver's pump_in/pump_out hold the one I/O rule for a link
# (4 KiB reads until WouldBlock, Interrupted retried at once, any other
# error a dead link, EOF reported apart); every peer builds its rounds
# from them. Only Link impls (link.rs, the fault harness in testutil.rs)
# and the driver itself may call try_read/try_write. Test code (from a
# file's first #[cfg(test)] on) and comment lines are not checked.
set -eu

cd "$(dirname "$0")/.."

found=$(find crates/*/src -name '*.rs' \
    ! -name link.rs ! -name driver.rs ! -name testutil.rs -print | sort |
    while read -r f; do
        awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
            /^[[:space:]]*\/\// { next }
            /try_(read|write)\(/ { print f ":" FNR ": " $0 }' "$f"
    done)
if [ -n "$found" ]; then
    echo "$found"
    echo "links are read and written only through pla_net::driver::{pump_in, pump_out}" >&2
    exit 1
fi
echo "links are read and written only by pla-net's driver"
