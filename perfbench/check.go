package main

// The correctness gate: every reply is compared bit for bit with the
// reference logits the MAC banks computed before the clock started.

import (
	"math"
	"sync/atomic"
)

// checker counts replies that differ from the reference.
type checker struct {
	mismatches atomic.Int64
}

// check reports whether logits and class match row's reference (class
// -1: the reply has none); a mismatch is counted.
func (c *checker) check(p *prepared, row int, logits []float64, class int) bool {
	want := p.want[row]
	ok := len(logits) == len(want) && (class == -1 || class == p.class[row])
	for i := 0; ok && i < len(want); i++ {
		ok = math.Float64bits(logits[i]) == want[i]
	}
	if !ok {
		c.mismatches.Add(1)
	}
	return ok
}

// checkReply checks a one-sample reply against row.
func (c *checker) checkReply(p *prepared, row uint16, rep reply) bool {
	if len(rep.logits) != 1 {
		c.mismatches.Add(1)
		return false
	}
	return c.check(p, int(row), rep.logits[0], classOf(rep, 0))
}

// classOf returns a reply's i-th class, or -1 when the reply carries
// none (in-process replies are logits only).
func classOf(rep reply, i int) int {
	if rep.classes == nil {
		return -1
	}
	return rep.classes[i]
}

// checkBatch checks every sample of a reply against rows.
func (c *checker) checkBatch(p *prepared, rows []uint16, rep reply) bool {
	if len(rep.logits) != len(rows) {
		c.mismatches.Add(1)
		return false
	}
	ok := true
	for i, row := range rows {
		ok = c.check(p, int(row), rep.logits[i], classOf(rep, i)) && ok
	}
	return ok
}

// selfTest feeds the checker one faithful reply and then copies with a
// flipped low bit in one logit and a wrong class; it reports whether the
// faithful reply passed and both corruptions were counted.
func selfTest(p *prepared) bool {
	var c checker
	good := make([]float64, len(p.want[0]))
	for i, b := range p.want[0] {
		good[i] = math.Float64frombits(b)
	}
	if !c.check(p, 0, good, p.class[0]) || c.mismatches.Load() != 0 {
		return false
	}
	bad := append([]float64(nil), good...)
	bad[len(bad)-1] = math.Float64frombits(math.Float64bits(bad[len(bad)-1]) ^ 1)
	c.check(p, 0, bad, p.class[0])
	c.check(p, 0, good, p.class[0]+1)
	return c.mismatches.Load() == 2
}
