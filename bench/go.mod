module github.com/bpmax-go/bpmax/bench

go 1.22

require github.com/bpmax-go/bpmax v0.0.0

replace github.com/bpmax-go/bpmax => ../
