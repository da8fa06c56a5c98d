// Package lib is the library beside the command fixture, holding the
// command's code: here each wall-clock read and the map range are flagged.
package lib

import (
	"fmt"
	"time"
)

func Run() {
	start := time.Now()                                // want `time\.Now reads the wall clock`
	for k, v := range map[string]int{"a": 1, "b": 2} { // want `order-sensitive`
		fmt.Println(k, v)
	}
	fmt.Println(time.Since(start)) // want `time\.Since reads the wall clock`
}
