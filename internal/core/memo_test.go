package core

import (
	"math/rand"
	"testing"

	"hourglass/internal/units"
)

// TestMemoTableMatchesMap drives the memo table and a Go map through the
// same puts — overwrites, growth, and cells that do not pack — and checks
// that every lookup agrees.
func TestMemoTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m memoTable
	ref := map[memoKey]units.USD{}
	for i := 0; i < 50_000; i++ {
		k := memoKey{slot: rng.Int63n(8), t: rng.Int63n(400), w: rng.Int63n(201), u: rng.Int63n(40)}
		switch rng.Intn(50) {
		case 0:
			k.t = -1 - k.t
		case 1:
			k.u += 1 << packUBits
		}
		want, wantOK := ref[k]
		if got, ok := m.get(k); ok != wantOK || got != want {
			t.Fatalf("get %+v = %v, %t; want %v, %t", k, got, ok, want, wantOK)
		}
		v := units.USD(rng.Float64())
		m.put(k, v)
		ref[k] = v
	}
	if len(m.wide) == 0 {
		t.Fatal("no cell took the unpacked path")
	}
	for k, want := range ref {
		if got, ok := m.get(k); !ok || got != want {
			t.Fatalf("get %+v = %v, %t; want %v", k, got, ok, want)
		}
	}
}
