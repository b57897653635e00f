package main

import (
	"flag"

	"fixture/a"
)

type doer interface{ Do() int }

func run(d doer) int { return d.Do() }

func main() {
	cfg := a.Config{Keyed: 1}
	flag.IntVar(&cfg.Pointed, "p", 0, "")
	println(a.New().N + run(a.Impl{}) + a.Use(cfg))
}
