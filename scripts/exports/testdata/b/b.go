package main

import "fixture/a"

type doer interface{ Do() int }

func run(d doer) int { return d.Do() }

func main() { println(a.New().N + run(a.Impl{})) }
