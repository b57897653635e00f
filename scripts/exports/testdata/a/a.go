// Package a holds one case of each kind scripts/exports reports or spares.
package a

// Dead is referenced by nothing: listed.
func Dead() {}

// Own is referenced only inside a: listed.
func Own() int { return 1 }

// TestOnly is referenced only by a _test.go file: listed.
func TestOnly() {}

// Result is named only as New's result: not listed.
type Result struct{ N int }

// New is called from b.
func New() Result { return Result{N: Own()} }

// Impl is handed to b, which calls Do through its own interface: not listed.
type Impl struct{}

func (Impl) Do() int { return 2 }

func unused() {} // listed

// Config's fields show which writes set a config field.
type Config struct {
	Unset     int // set by nothing: listed
	Keyed     int // set by b's keyed literal: not listed
	Pointed   int // set through b's &cfg.Pointed: not listed
	Defaulted int // only a's resolve(&c.Defaulted, 8) writes it: listed
	Assigned  int // only a's own c.Assigned = 4 and c.Assigned++ write it: listed
}

// Use is called from b.
func Use(c Config) int {
	resolve(&c.Defaulted, 8)
	if c.Assigned == 0 {
		c.Assigned = 4
	}
	c.Assigned++
	return c.Unset + c.Keyed + c.Pointed + c.Defaulted + c.Assigned
}

func resolve(p *int, d int) {
	if *p == 0 {
		*p = d
	}
}
