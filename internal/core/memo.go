package core

import (
	"math/bits"

	"hourglass/internal/units"
)

// memoKey is one cell of the slack-aware recursion's grid: the time,
// work and uptime bucket indexes plus a slot — 0 for EC(t,w), c+1 for
// configuration c's kept branch EC(t,w)|c.
type memoKey struct{ slot, t, w, u int64 }

// Bit widths of a packed memoKey: 1 | t | w | u | slot. At the smallest
// (60 s) time bucket they cover 63 years of absolute time and 11 days of
// uptime; work fractions up to 20 and 4095 configurations.
const (
	packTBits    = 25
	packWBits    = 12
	packUBits    = 14
	packSlotBits = 12
)

// pack lays k out in one word, or reports that it does not fit. The
// leading 1 keeps every packed key nonzero.
func (k memoKey) pack() (uint64, bool) {
	if uint64(k.t) >= 1<<packTBits || uint64(k.w) >= 1<<packWBits ||
		uint64(k.u) >= 1<<packUBits || uint64(k.slot) >= 1<<packSlotBits {
		return 0, false
	}
	return 1<<63 | uint64(k.t)<<(packWBits+packUBits+packSlotBits) |
		uint64(k.w)<<(packUBits+packSlotBits) | uint64(k.u)<<packSlotBits | uint64(k.slot), true
}

// memoTable maps grid cells to costs. Cells that pack live in an
// open-addressing table of one-word keys, probed linearly; it starts
// empty and doubles at half load, so a decision that memoises little
// allocates little. Cells that do not pack go to an ordinary map.
type memoTable struct {
	slots []memoSlot
	shift uint // 64 − log2(len(slots))
	n     int
	wide  map[memoKey]units.USD
}

type memoSlot struct {
	key uint64 // packed memoKey; 0 marks an empty slot
	v   units.USD
}

// home is the Fibonacci hash of a packed key: the top bits of its
// product with 2⁶⁴/φ.
func (m *memoTable) home(pk uint64) uint64 { return (pk * 0x9E3779B97F4A7C15) >> m.shift }

func (m *memoTable) get(k memoKey) (units.USD, bool) {
	pk, ok := k.pack()
	if !ok {
		v, ok := m.wide[k]
		return v, ok
	}
	if m.n == 0 {
		return 0, false
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(pk); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == pk {
			return s.v, true
		}
		if s.key == 0 {
			return 0, false
		}
	}
}

func (m *memoTable) put(k memoKey, v units.USD) {
	pk, ok := k.pack()
	if !ok {
		if m.wide == nil {
			m.wide = map[memoKey]units.USD{}
		}
		m.wide[k] = v
		return
	}
	if 2*(m.n+1) > len(m.slots) {
		m.grow()
	}
	mask := uint64(len(m.slots) - 1)
	for i := m.home(pk); ; i = (i + 1) & mask {
		s := &m.slots[i]
		if s.key == pk {
			s.v = v
			return
		}
		if s.key == 0 {
			s.key, s.v = pk, v
			m.n++
			return
		}
	}
}

func (m *memoTable) grow() {
	old := m.slots
	size := max(2*len(old), 64)
	m.slots = make([]memoSlot, size)
	m.shift = 64 - uint(bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.key == 0 {
			continue
		}
		i := m.home(s.key)
		for m.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		m.slots[i] = s
	}
}
