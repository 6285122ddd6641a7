// Command tampbench is the fixture's figure loop.
package main

import (
	"fmt"

	"seams/internal/harness"
)

func main() {
	for _, f := range harness.Figures() {
		// A text grep catches a quoted figure name.
		if f.Name == "11" { // want figure
			fmt.Println(f.Name)
		}
		// It misses one held in a constant declared outside cmd/.
		if f.Name == harness.Matrix { // want figure
			fmt.Println(f.Name)
		}
	}
	fmt.Println("12") // not a row: not reported
}
