let () =
  let box = { Gate_fixture.Shapes.width = 2.0; height = 3.0; label = "b" } in
  print_float (Gate_fixture.Report.total ~factor:2.0 [ box ])
