package main

import (
	"crypto/sha256"
	"time"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
	"ppcd/internal/sym"
)

// timeMedian runs fn reps times and returns the median duration in ms.
func timeMedian(reps int, fn func() error) (float64, error) {
	samples := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		samples = append(samples, ms(time.Since(t0)))
	}
	return median(samples), nil
}

// kernels calls the solve-path layers directly at the workload's shape — n
// single-CSS rows per ACV, the shard size or the paper's N — so the traced
// run can say how much of Publish each one explains. These are the paper's
// §VII quantities: ACV generation (core.build_ms), key derivation
// (core.kev_ms) and the null-space solve inside the former.
func kernels(g *rng, n, subdocBytes int, res *result) error {
	rows := make([][]core.CSS, n)
	for i := range rows {
		rows[i] = []core.CSS{g.css()}
	}
	reps := 9
	if n > 256 {
		reps = 3
	}
	var hdr *core.Header
	build, err := timeMedian(reps, func() (err error) {
		hdr, _, err = core.Build(rows, n)
		return err
	})
	if err != nil {
		return err
	}
	res.set("core.build_ms", build)

	rh := core.NewRowHasher(rows[0])
	const hashes = 1 << 14
	t0 := time.Now()
	var sink ff64.Elem
	for i := 0; i < hashes; i++ {
		sink += rh.Hash(hdr.Zs[i%n])
	}
	res.set("core.rowhash_ns", float64(time.Since(t0).Nanoseconds())/hashes)

	kev, err := timeMedian(reps*3, func() error {
		v, err := core.KEV(rows[0], hdr)
		if err != nil {
			return err
		}
		k, err := v.Dot(hdr.X)
		sink += k
		return err
	})
	if err != nil {
		return err
	}
	res.set("core.kev_ms", kev)

	// The same system Build solves: n rows of (1, a_1 … a_n), one free column.
	ws := linalg.NewWorkspace()
	solves := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		m := ws.Matrix(n, n+1)
		for r := 0; r < n; r++ {
			m.Set(r, 0, ff64.One)
			for j := 1; j <= n; j++ {
				m.Set(r, j, ff64.New(g.next()))
			}
		}
		t := time.Now()
		if _, err := m.RandomKernelVectorBlocked(ws); err != nil {
			return err
		}
		solves = append(solves, ms(time.Since(t)))
	}
	res.set("linalg.solve_ms", median(solves))

	var key [sym.KeySize]byte
	copy(key[:], g.bytes(sym.KeySize))
	pt := g.bytes(subdocBytes)
	seal, err := timeMedian(99, func() error {
		ct, err := sym.Encrypt(key, pt)
		if err != nil {
			return err
		}
		_, err = sym.Decrypt(key, ct)
		return err
	})
	if err != nil {
		return err
	}
	res.set("sym.seal_open_ms", seal)
	kernelSink = uint64(sink)
	return nil
}

// kernelSink keeps the kernels' results live so the compiler cannot drop
// the calls.
var kernelSink uint64

// calibrate runs two fixed kernels so readings from different hosts can be
// normalised: SHA-256 over 64 MiB and 2^24 ff64 multiply-accumulates.
func calibrate(res *result) {
	buf := make([]byte, 1<<20)
	t0 := time.Now()
	h := sha256.New()
	for i := 0; i < 64; i++ {
		h.Write(buf)
	}
	sum := h.Sum(nil)
	res.set("calib.sha256_ms", ms(time.Since(t0)))

	t0 = time.Now()
	acc, a := ff64.New(uint64(sum[0])+1), ff64.New(0x9e3779b97f4a7c15)
	for i := 0; i < 1<<24; i++ {
		acc = ff64.MulAdd(acc, a, acc)
	}
	res.set("calib.ff64_ms", ms(time.Since(t0)))
	kernelSink += uint64(acc)
}
