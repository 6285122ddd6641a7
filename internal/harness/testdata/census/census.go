// Command census is the fixture of TestCensusResolvesByObject: each
// declaration's comment says whether the census reports it.
package main

import "fmt"

// A.Name is called: not reported.
type A struct{}

func (A) Name() string { return "a" }

// B.Name is never called, though its namesake A.Name is: reported.
type B struct{}

func (B) Name() string { return "b" }

// Hot.SetHot is reached only through an anonymous-interface type assertion:
// not reported.
type Hot struct{}

func (*Hot) SetHot(int) {}

// Label.String is reached only through fmt.Stringer: not reported.
type Label int

func (Label) String() string { return "label" }

// recurse calls only itself: reported.
func recurse(n int) int {
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

// Box.Get is called on an instantiation: not reported.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func use(x any) {
	_ = A{}.Name()
	if h, ok := x.(interface{ SetHot(int) }); ok {
		h.SetHot(1)
	}
	fmt.Println(Label(1), Box[int]{}.Get())
}

func main() { use(&Hot{}) }
