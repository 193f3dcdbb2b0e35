module minos/bench/e2e

go 1.22

require minos v0.0.0

replace minos => ../..
