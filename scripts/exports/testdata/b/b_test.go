package main

import (
	"testing"

	"fixture/a"
)

func TestOnly(t *testing.T) { a.TestOnly() }
