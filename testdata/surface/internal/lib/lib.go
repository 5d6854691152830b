// Package lib holds one of each declaration the surface gate judges. The
// gate reports exactly four of them, each marked "reported" below.
package lib

import "fmt"

// Used is called by the command.
func Used() int { return 1 }

// TestOnly is called only by lib_test.go: reported.
func TestOnly() int { return 2 }

// Source is an interface the module declares.
type Source interface{ Next() int }

// Counter is the Source the command uses.
type Counter struct{ n int }

// Next implements Source.
func (c *Counter) Next() int {
	c.n++
	return c.n
}

// Fake implements Source, but only lib_test.go uses it: reported. Its
// Next is not, because it implements Source.
type Fake struct{}

// Next implements Source.
func (Fake) Next() int { return 0 }

// Sum adds the next n values of s.
func Sum(s Source, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += s.Next()
	}
	return total
}

// Buffer's Flush is called by the command.
type Buffer struct{}

// Flush is called by the command.
func (*Buffer) Flush() {}

// Batch collects values for the command.
type Batch struct{ items []int }

// Add is called by the command.
func (b *Batch) Add(v int) { b.items = append(b.items, v) }

// Flush shares its name with Buffer.Flush, which the command calls, but
// only lib_test.go calls this one: reported.
func (b *Batch) Flush() { b.items = b.items[:0] }

// Config is set by the command, except Debug, which only lib_test.go
// sets: reported.
type Config struct {
	Size  int
	Debug bool
}

// String implements fmt.Stringer: nothing calls it by name, and it is not
// reported.
func (c Config) String() string { return fmt.Sprintf("size=%d debug=%v", c.Size, c.Debug) }

// Report is decoded from JSON: no code writes its fields, and they are not
// reported.
type Report struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
}
