package deque

import (
	"testing"

	"lcws/internal/counters"
)

// FuzzSplitDequeOwnerOps drives a split deque with an arbitrary owner-side
// operation string against a slice model, checking LIFO/FIFO semantics and
// size accounting. Each byte of ops selects an operation. Run with
// `go test -fuzz FuzzSplitDequeOwnerOps ./internal/deque` to explore; the
// seed corpus doubles as a regression test in normal runs.
func FuzzSplitDequeOwnerOps(f *testing.F) {
	f.Add([]byte("ppooxpso"), false)
	f.Add([]byte("pppxxsssooo"), true)
	f.Add([]byte("pxopxopxo"), false)
	f.Add([]byte("ppppxxxxuoooo"), true)
	f.Add([]byte("pppphbboo"), false)
	f.Add([]byte("ppppppxxxxxxbbuoo"), true)
	f.Fuzz(func(t *testing.T, ops []byte, raceFix bool) {
		d := NewSplit[int](256, raceFix)
		c := counters.NewSet(1).Worker(0)
		var model []int // all live values, oldest first
		publicCount := 0
		next := 0
		for _, op := range ops {
			switch op {
			case 'p': // push
				if len(model) >= 250 {
					continue
				}
				v := new(int)
				*v = next
				d.PushBottom(v, c)
				model = append(model, next)
				next++
			case 'x': // expose one
				if d.Expose(ExposeOne, c) == 1 {
					publicCount++
				}
			case 'h': // expose half
				publicCount += d.Expose(ExposeHalf, c)
			case 'o': // pop bottom (private), repair via public on failure
				got := d.PopBottom(c)
				if len(model) > publicCount {
					if got == nil || *got != model[len(model)-1] {
						t.Fatalf("PopBottom = %v, model wants %d", got, model[len(model)-1])
					}
					model = model[:len(model)-1]
				} else {
					if got != nil {
						t.Fatalf("PopBottom on empty private part returned %d", *got)
					}
					got := d.PopPublicBottom(c)
					if publicCount > 0 {
						if got == nil || *got != model[len(model)-1] {
							t.Fatalf("PopPublicBottom = %v, model wants %d", got, model[len(model)-1])
						}
						model = model[:len(model)-1]
						publicCount--
					} else if got != nil {
						t.Fatalf("PopPublicBottom on empty deque returned %d", *got)
					}
				}
			case 'b': // batched steal (single-threaded: deterministic)
				var buf [4]*int
				n, res := d.PopTopHalf(buf[:], c)
				switch {
				case publicCount > 0:
					want := (publicCount + 1) / 2
					if want > len(buf) {
						want = len(buf)
					}
					if res != Stolen || n != want {
						t.Fatalf("PopTopHalf = %d,%v, model wants Stolen %d", n, res, want)
					}
					for i := 0; i < n; i++ {
						if buf[i] == nil || *buf[i] != model[i] {
							t.Fatalf("PopTopHalf buf[%d] = %v, model wants %d", i, buf[i], model[i])
						}
					}
					model = model[n:]
					publicCount -= n
				case len(model) > 0:
					if res != PrivateWork || n != 0 {
						t.Fatalf("PopTopHalf = %d,%v, want 0,PrivateWork", n, res)
					}
				default:
					if res != Empty || n != 0 {
						t.Fatalf("PopTopHalf = %d,%v, want 0,Empty", n, res)
					}
				}
			case 's': // steal (single-threaded: deterministic)
				got, res := d.PopTop(c)
				switch {
				case publicCount > 0:
					if res != Stolen || got == nil || *got != model[0] {
						t.Fatalf("PopTop = %v,%v, model wants Stolen %d", got, res, model[0])
					}
					model = model[1:]
					publicCount--
				case len(model) > 0:
					if res != PrivateWork {
						t.Fatalf("PopTop = %v, want PrivateWork", res)
					}
				default:
					if res != Empty {
						t.Fatalf("PopTop = %v, want Empty", res)
					}
				}
			case 'u': // unexpose (only legal when private part empty)
				if len(model) > publicCount {
					continue
				}
				got := d.UnexposeAll(c)
				if got != publicCount {
					t.Fatalf("UnexposeAll = %d, model has %d public", got, publicCount)
				}
				publicCount = 0
			default:
				continue
			}
			if d.PrivateSize() != len(model)-publicCount {
				t.Fatalf("PrivateSize = %d, model %d (op %q)", d.PrivateSize(), len(model)-publicCount, op)
			}
			if d.PublicSize() != publicCount {
				t.Fatalf("PublicSize = %d, model %d (op %q)", d.PublicSize(), publicCount, op)
			}
		}
	})
}

// FuzzChaseLevOwnerOps drives the WS baseline deque against a slice model
// the same way FuzzSplitDequeOwnerOps drives the split deque. With
// batched true it drives the NewChaseLevBatch variant, whose owner pop
// and batched steal ('n') must preserve the same sequential semantics.
func FuzzChaseLevOwnerOps(f *testing.F) {
	f.Add([]byte("ppooso"), false)
	f.Add([]byte("ppppssssoooo"), false)
	f.Add([]byte("ppppnnoo"), true)
	f.Add([]byte("pppposnpono"), true)
	f.Fuzz(func(t *testing.T, ops []byte, batched bool) {
		var d *ChaseLev[int]
		if batched {
			d = NewChaseLevBatch[int](256)
		} else {
			d = NewChaseLev[int](256)
		}
		c := counters.NewSet(1).Worker(0)
		var model []int
		next := 0
		for _, op := range ops {
			switch op {
			case 'p':
				if len(model) >= 250 {
					continue
				}
				v := new(int)
				*v = next
				d.PushBottom(v, c)
				model = append(model, next)
				next++
			case 'o':
				got := d.PopBottom(c)
				if len(model) == 0 {
					if got != nil {
						t.Fatalf("PopBottom on empty returned %d", *got)
					}
					continue
				}
				if got == nil || *got != model[len(model)-1] {
					t.Fatalf("PopBottom = %v, want %d", got, model[len(model)-1])
				}
				model = model[:len(model)-1]
			case 's':
				got, res := d.PopTop(c)
				if len(model) == 0 {
					if res != Empty {
						t.Fatalf("PopTop on empty = %v", res)
					}
					continue
				}
				if res != Stolen || got == nil || *got != model[0] {
					t.Fatalf("PopTop = %v,%v, want Stolen %d", got, res, model[0])
				}
				model = model[1:]
			case 'n': // batched steal (single-threaded: deterministic)
				var buf [4]*int
				n, res := d.PopTopHalf(buf[:], c)
				if len(model) == 0 {
					if res != Empty || n != 0 {
						t.Fatalf("PopTopHalf on empty = %d,%v", n, res)
					}
					continue
				}
				want := 1
				if batched {
					want = (len(model) + 1) / 2
					if want > len(buf) {
						want = len(buf)
					}
				}
				if res != Stolen || n != want {
					t.Fatalf("PopTopHalf = %d,%v, model wants Stolen %d", n, res, want)
				}
				for i := 0; i < n; i++ {
					if buf[i] == nil || *buf[i] != model[i] {
						t.Fatalf("PopTopHalf buf[%d] = %v, model wants %d", i, buf[i], model[i])
					}
				}
				model = model[n:]
			default:
				continue
			}
			if d.Size() != len(model) {
				t.Fatalf("Size = %d, model %d", d.Size(), len(model))
			}
		}
	})
}
