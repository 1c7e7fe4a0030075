#!/bin/sh
# Compiler and linker launcher that bounds how many tools run at once.
#
# Usage: jobslot.sh SLOT_DIR TOOL [ARGS...]
#
# The top-level CMakeLists.txt puts this in front of every compile and link
# (CMAKE_CXX_COMPILER_LAUNCHER / CMAKE_CXX_LINKER_LAUNCHER). Before it execs
# TOOL, the launcher takes an exclusive flock on one of `nproc` slot files in
# SLOT_DIR and keeps it through the exec, so the lock is released only when
# the tool exits. However many jobs make starts (a bare `-j` starts every
# ready one), at most `nproc` compilers and linkers hold memory at a time;
# the rest wait in the kernel.
#
# Waiters queue on SLOT_DIR/queue, so only the one at the head polls the
# slots; it waits on one slot for a short while, then rescans them all.

set -eu

dir=$1
shift
slots=$(nproc)
mkdir -p "$dir"

exec 8> "$dir/queue"
flock 8
i=0
while :; do
  k=0
  while [ "$k" -lt "$slots" ]; do
    exec 9> "$dir/slot$(((i + k) % slots))"
    if flock -n 9; then
      exec 8>&-
      exec "$@"
    fi
    k=$((k + 1))
  done
  exec 9> "$dir/slot$i"
  if flock -w 0.1 9; then
    exec 8>&-
    exec "$@"
  fi
  i=$(((i + 1) % slots))
done
