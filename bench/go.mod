module cruz/bench

go 1.22

require cruz v0.0.0

replace cruz => ../
