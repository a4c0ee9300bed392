module hourglass/bench

go 1.22

require hourglass v0.0.0

replace hourglass => ../
