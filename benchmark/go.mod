module pcltm/benchmark

go 1.23

require pcltm v0.0.0

replace pcltm => ../
