module aceso/bench

go 1.22

require aceso v0.0.0

replace aceso => ../
