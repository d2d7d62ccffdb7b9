package sim

import "testing"

// TestBorrowNested checks the engine scratch's take-and-return
// contract: a nested Borrow of a type already out gets a distinct
// zero value, a returned value serves the next Borrow of its type,
// types never mix, and engines never share.
func TestBorrowNested(t *testing.T) {
	type bufA struct{ xs []int }
	type bufB struct{ xs []int }
	var e Engine
	outer := Borrow[bufA](&e)
	outer.xs = append(outer.xs, 1)
	inner := Borrow[bufA](&e)
	if inner == outer {
		t.Fatal("a nested Borrow of the same type got the value already out")
	}
	if inner.xs != nil {
		t.Errorf("a new value holds %v, want the zero value", inner.xs)
	}
	inner.xs = append(inner.xs, 2)
	Return(&e, inner)
	if b := Borrow[bufB](&e); b.xs != nil {
		t.Errorf("Borrow of another type got %v, want a new zero value", b.xs)
	}
	Return(&e, outer)
	got := map[*bufA]bool{Borrow[bufA](&e): true, Borrow[bufA](&e): true}
	if !got[outer] || !got[inner] {
		t.Error("the two returned values did not serve the next two borrows")
	}
	if third := Borrow[bufA](&e); third == outer || third == inner {
		t.Error("a third borrow got a value that is still out")
	}
	Return(&e, outer)
	if other := Borrow[bufA](new(Engine)); other == outer {
		t.Error("a second engine got the first engine's value")
	}
}
