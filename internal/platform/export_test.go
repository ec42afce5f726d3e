package platform

// RefRoute exposes the string-keyed reference resolver (route_ref_test.go)
// to the external differential tests.
func RefRoute(p *Platform, src, dst string) (Route, error) { return p.refRoute(src, dst) }
