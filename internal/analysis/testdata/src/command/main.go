// Command command is a fixture for the command exemption of detrand and
// maporder: a command may read the wall clock and print a map in its own
// order. The same code in lib, the library beside it, is flagged.
package main

import (
	"fmt"
	"time"
)

func main() {
	start := time.Now()
	for k, v := range map[string]int{"a": 1, "b": 2} {
		fmt.Println(k, v)
	}
	fmt.Println(time.Since(start))
}
