// Command reach is the fixture TestReachRulesOnFixture checks: each
// declaration in lib covers one rule of the reachability guard.
package main

import (
	"fmt"

	"reach/lib"
)

func main() {
	s := lib.NewStore()
	s.Put("k")
	fmt.Println(lib.Span{Lo: 0, Hi: 2}.Contains(1))
	fmt.Println(lib.Eval(lib.Leaf{}))
	fmt.Println(lib.Total(lib.Square{Side: 2}))
	fmt.Println(lib.Green)
	var st lib.Stack[int]
	st.Append(1)
}
