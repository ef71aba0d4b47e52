#!/usr/bin/env bash
# Restart smoke: durable publisher state end to end, across real processes.
#
#   ppcd-pub -state-dir … publishes → SIGTERM (final snapshot) → warm
#   restart → the ppcd-sub stream client that survived the restart catches
#   up with a DELTA (never a re-snapshot) and the first post-restart publish
#   re-solves nothing.
#
# A third phase hard-crashes the publisher (SIGKILL, no final snapshot) and
# plants the wreckage of a snapshot interrupted between segment writes —
# orphan seg-*.ppcd files and a manifest.ppcd.tmp — before restarting: the
# manifest swap is atomic, so the previous manifest + WAL tail must still
# recover cleanly and the debris must be garbage-collected — and the WAL's
# publish record restores the last broadcast, so the client crosses the crash
# on a delta too.
#
# Run from the repository root; CI invokes it after the unit suites.
set -euo pipefail

BIN=$(mktemp -d)
WORK=$(mktemp -d)
cleanup() {
	# shellcheck disable=SC2046 — one PID per word is the point
	kill $(jobs -p) 2>/dev/null || true
	wait 2>/dev/null || true
	rm -rf "$BIN" "$WORK"
}
trap cleanup EXIT

go build -o "$BIN" ./cmd/ppcd-pub ./cmd/ppcd-sub

cd "$WORK"
ADDR=127.0.0.1:7469

"$BIN/ppcd-sub" idmgr-init -idmgr-seed-file idmgr.seed >/dev/null
KEY=$("$BIN/ppcd-sub" idmgr-pubkey -idmgr-seed-file idmgr.seed)
"$BIN/ppcd-sub" issue -idmgr-seed-file idmgr.seed -nym pn-1 -tag age -value 30 -out token.json

cat > policies.txt <<'POL'
adult | age >= 18 | news.xml | body
POL
printf '<news><body>first edition</body></news>' > news1.xml
printf '<news><body>second edition</body></news>' > news2.xml
printf '<news><body>third edition</body></news>' > news3.xml

wait_for() { # <shell predicate> <timeout seconds>
	local t=0
	until eval "$1"; do
		t=$((t + 1))
		if [ "$t" -gt "$2" ]; then
			echo "timeout waiting for: $1" >&2
			tail -n 50 ./*.log >&2 || true
			return 1
		fi
		sleep 1
	done
}

start_pub() { # <logfile> <command fifo>
	mkfifo "$2"
	"$BIN/ppcd-pub" -addr "$ADDR" -policies policies.txt -idmgr-key "$KEY" \
		-state-dir state -group-size 2 -snapshot-every 1h -snapshot-wal-records 10000 <"$2" >"$1" 2>&1 &
	PUB_PID=$!
	exec {FIFO_FD}>"$2" # keep a writer open so the publisher's stdin stays live
	wait_for "grep -q 'serving registrations' $1" 30
}

start_pub pub1.log cmds1
"$BIN/ppcd-sub" register -addr "$ADDR" -token token.json
"$BIN/ppcd-sub" stream -addr "$ADDR" -token token.json -outdir plain >sub.log 2>&1 &

cp news1.xml news.xml
echo "publish news.xml body" >&"$FIFO_FD"
wait_for "test -f plain/body.dec" 30
grep -q 'first edition' plain/body.dec
grep -q 'applied snapshot' sub.log # cold subscriber: one snapshot, as expected

# An operator snapshot on demand: the stdin command writes one and logs it.
echo "snapshot" >&"$FIFO_FD"
wait_for "grep -q 'snapshot written: ' pub1.log" 30

# SIGTERM: the publisher snapshots its state (table, epoch, generation,
# caches, diff bases) and exits cleanly.
kill -TERM "$PUB_PID"
wait "$PUB_PID" || true
exec {FIFO_FD}>&-

# Warm restart over the same state directory.
start_pub pub2.log cmds2
grep -q 'recovered 1 subscribers' pub2.log

cp news2.xml news.xml
echo "publish news.xml body" >&"$FIFO_FD"
wait_for "grep -q 'second edition' plain/body.dec 2>/dev/null" 40

# The surviving stream client crossed the restart on a delta at the resumed
# epoch (2 — numbering continued), never re-downloading a snapshot.
grep -q 'epoch 2 of "news.xml": applied delta' sub.log
if [ "$(grep -c 'applied snapshot' sub.log)" != 1 ]; then
	echo "subscriber re-snapshotted across the restart:" >&2
	cat sub.log >&2
	exit 1
fi
# And the restored caches made the post-restart publish a zero-rekey one.
grep -q '(0 rekeyed' pub2.log

# Hard crash: SIGKILL — the epoch-2 publish lives only in the WAL (fsynced
# before it took effect), no final snapshot is written.
kill -KILL "$PUB_PID"
wait "$PUB_PID" || true
exec {FIFO_FD}>&-
test -f state/manifest.ppcd # the SIGTERM shutdown left a segmented snapshot

# Plant the wreckage of a snapshot that died between segment writes: sealed-
# looking orphan segment files the manifest never came to reference, plus a
# torn manifest.ppcd.tmp that never got renamed. The manifest swap is atomic,
# so none of this may confuse recovery — and all of it must be swept.
printf 'torn segment write' > state/seg-t0-00000000deadbeef.ppcd
printf 'torn segment write' > state/seg-c0-00000000deadbeef.ppcd
printf 'torn manifest write' > state/manifest.ppcd.tmp

start_pub pub3.log cmds3
grep -q 'recovered 1 subscribers' pub3.log
# The epoch-2 publish came back off the WAL tail, not the snapshot.
grep -Eq '[1-9][0-9]* WAL events replayed' pub3.log
# The interrupted-snapshot debris is gone; the manifest survived the crash.
test ! -e state/manifest.ppcd.tmp
test ! -e state/seg-t0-00000000deadbeef.ppcd
test ! -e state/seg-c0-00000000deadbeef.ppcd
test -f state/manifest.ppcd

cp news3.xml news.xml
echo "publish news.xml body" >&"$FIFO_FD"
wait_for "grep -q 'third edition' plain/body.dec 2>/dev/null" 40
# Epoch numbering continued across the hard crash, and the next publish
# reaches the surviving client as a one-epoch delta. The crash costs the
# client nothing: the epoch-2 publish record carries its broadcast and what
# it solved, so recovery restores epoch 2 as the diff base the ring is
# re-seeded with, and the client, current at epoch 2, is never re-snapshotted
# — the full run shows exactly one snapshot, the cold subscribe's.
grep -q 'epoch 3 of "news.xml": applied delta' sub.log
if [ "$(grep -c 'applied snapshot' sub.log)" != 1 ]; then
	echo "subscriber re-snapshotted across the hard crash:" >&2
	cat sub.log >&2
	exit 1
fi
grep -q '(0 rekeyed' pub3.log

echo "restart smoke OK"
