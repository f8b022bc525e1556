package buildtags

func arch() string { return "amd64" }
