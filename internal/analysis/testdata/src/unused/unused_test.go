package main

import "testing"

func TestOnlyTested(t *testing.T) {
	if onlyTested() != 1 {
		t.Fatal("onlyTested")
	}
}
