package stats

import (
	"math"
	"testing"
)

func TestEMA(t *testing.T) {
	e := NewEMA(0.5)
	if e.Ready() || e.Value() != 0 {
		t.Error("zero EMA")
	}
	e.Add(10)
	if !e.Ready() || e.Value() != 10 {
		t.Error("first sample sets value")
	}
	e.Add(20)
	if e.Value() != 15 {
		t.Errorf("EMA = %v, want 15", e.Value())
	}
	// Converges toward a constant input.
	for i := 0; i < 50; i++ {
		e.Add(100)
	}
	if math.Abs(e.Value()-100) > 1e-6 {
		t.Errorf("EMA did not converge: %v", e.Value())
	}
}

func TestExecCounters(t *testing.T) {
	var c ExecCounters
	if c.VectorFraction() != 0 {
		t.Error("empty counters must report 0")
	}
	c.VectorRows, c.ScalarRows = 30, 20
	if got := c.VectorFraction(); got != 0.6 {
		t.Errorf("VectorFraction = %v, want 0.6", got)
	}
}

func TestPartitionCounters(t *testing.T) {
	var c ExecCounters
	if c.PartImbalance(4) != 0 || c.PartMessages() != 0 {
		t.Error("empty counters must report zero")
	}
	c.PartLoadMax, c.PartLoadSum = 25, 100
	if v := c.PartImbalance(4); v != 1 {
		t.Errorf("balanced = %v", v)
	}
	c.PartLoadMax = 100
	if v := c.PartImbalance(4); v != 4 {
		t.Errorf("one-sided = %v", v)
	}
	c.PartMsgsGhost, c.PartMsgsEffect, c.PartMsgsMigrate = 3, 2, 1
	if c.PartMessages() != 6 {
		t.Errorf("PartMessages = %d", c.PartMessages())
	}
}
